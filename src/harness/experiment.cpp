#include "src/harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/faults/injector.h"
#include "src/harness/engine.h"
#include "src/topology/failures.h"

namespace peel {

using detail::Engine;
using detail::make_engine;
using detail::run_and_harvest;
using detail::submit_collective;

bool byte_audit_env_default() {
  const char* v = std::getenv("PEEL_BYTE_AUDIT");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

const char* to_string(CollectiveKind kind) noexcept {
  switch (kind) {
    case CollectiveKind::Broadcast: return "Broadcast";
    case CollectiveKind::AllGather: return "AllGather";
    case CollectiveKind::AllReduce: return "AllReduce";
  }
  return "?";
}

const char* to_string(Fidelity f) noexcept {
  switch (f) {
    case Fidelity::Packet: return "packet";
    case Fidelity::Flow: return "flow";
  }
  return "?";
}

Fidelity parse_fidelity(const std::string& name) {
  if (name == "packet") return Fidelity::Packet;
  if (name == "flow") return Fidelity::Flow;
  throw std::invalid_argument("unknown fidelity '" + name +
                              "' (expected packet | flow)");
}

Bytes bytes_on_links(const DataPlane& net, const Topology& topo, bool fabric,
                     bool host_nic, bool nvlink) {
  Bytes total = 0;
  for (LinkId l = 0; static_cast<std::size_t>(l) < topo.link_count(); ++l) {
    const LinkKind kind = topo.link(l).kind;
    const bool counted = (kind == LinkKind::Fabric && fabric) ||
                         (kind == LinkKind::HostNic && host_nic) ||
                         (kind == LinkKind::NvLink && nvlink);
    if (counted) total += net.link_bytes(l);
  }
  return total;
}

ScenarioResult run_scenario(const Fabric& shared_fabric,
                            const ScenarioConfig& config) {
  // A negative delay would schedule each recovery pass into the past, which
  // the event queue only catches at the first fault, deep inside the run.
  const double detect_s = config.faults.detection_delay_seconds;
  if (!std::isfinite(detect_s) || detect_s < 0.0) {
    throw std::invalid_argument(
        "run_scenario: faults.detection_delay_seconds must be a finite "
        "number >= 0, got " + std::to_string(detect_s));
  }
  // Dynamic faults mutate the Topology; run against a private deep copy so
  // the caller's (possibly sweep-shared) fabric stays pristine.
  std::optional<FatTree> fat_tree_copy;
  std::optional<LeafSpine> leaf_spine_copy;
  Fabric fabric = shared_fabric;
  Topology* faulty_topo = nullptr;
  if (config.faults.any() && shared_fabric.fat_tree) {
    fabric = Fabric::of(fat_tree_copy.emplace(*shared_fabric.fat_tree));
    faulty_topo = &fat_tree_copy->topo;
  } else if (config.faults.any()) {
    fabric = Fabric::of(leaf_spine_copy.emplace(*shared_fabric.leaf_spine));
    faulty_topo = &leaf_spine_copy->topo;
  }

  const std::unique_ptr<Engine> engine =
      make_engine(fabric.topo(), config.sim, config.fidelity, config.shards,
                  config.byte_audit);
  EventQueue& queue = engine->control();
  Rng rng(config.seed);
  CollectiveRunner runner(fabric, engine->data(), queue, rng.fork(0xc0'11ec),
                          config.runner);

  std::optional<FaultInjector> injector;
  TopologyEventBus bus;
  std::size_t recovered = 0;
  if (faulty_topo != nullptr) {
    FaultSchedule schedule = config.faults.schedule;
    if (config.faults.flap.enabled()) {
      // Flap draws come from a dedicated fork of the scenario seed, so the
      // schedule is reproducible and independent of arrivals/placement.
      const std::vector<LinkId> candidates =
          fabric.leaf_spine ? duplex_spine_leaf_links(*faulty_topo)
                            : duplex_fabric_links(*faulty_topo);
      Rng flap_rng = rng.fork(0xf417);
      schedule.merge(
          generate_flap_schedule(candidates, config.faults.flap, flap_rng));
    }
    schedule.normalize();
    // The runner consumes each published TopologyDelta at the event's
    // simulated time: route flush plus surgical repair/eviction of exactly
    // the cached plans whose trees traverse a failed pair.
    bus.subscribe(&runner);
    injector.emplace(*faulty_topo, engine->data(), queue, &bus);
    const SimTime detect =
        seconds_to_sim(config.faults.detection_delay_seconds);
    injector->set_handler([&queue, &runner, &recovered, detect,
                           auto_recover =
                               config.faults.auto_recover](const AppliedFault&) {
      // Recovery waits for the detection delay (the delta already landed).
      if (!auto_recover) return;
      queue.after(detect,
                  [&runner, &recovered] { recovered += runner.recover_all(); });
    });
    injector->arm(schedule);
  }

  const double lambda = arrival_rate_for_load(
      fabric, config.offered_load, config.message_bytes, config.group_size);
  const double mean_gap_ns = 1e9 / lambda;

  if (config.sim.telemetry.sample_interval > 0) {
    // Pre-size the queue-depth series: a deadline bounds the sample count
    // exactly; a run-to-drain is sized from the arrival span (collectives x
    // mean gap) with 2x headroom for the drain tail.
    const double horizon_ns =
        config.deadline_seconds > 0.0
            ? config.deadline_seconds * 1e9
            : mean_gap_ns * static_cast<double>(config.collectives) * 2.0;
    const double expected =
        horizon_ns / static_cast<double>(config.sim.telemetry.sample_interval);
    engine->reserve_series(
        static_cast<std::size_t>(std::min(expected, 1e6)) + 16);
  }

  PlacementOptions placement;
  placement.group_size = config.group_size;
  placement.fragmentation = config.fragmentation;
  placement.buddy_aligned = config.buddy_aligned;

  Rng arrivals = rng.fork(0xa41);
  Rng placer = rng.fork(0x97ace);

  // group_pool > 0 models iteration reuse: the same member sets are
  // resubmitted round-robin instead of a fresh placement per collective.
  std::vector<GroupSelection> pool;
  if (config.group_pool > 0) {
    pool.reserve(static_cast<std::size_t>(
        std::min(config.group_pool, config.collectives)));
    for (int i = 0; i < config.group_pool && i < config.collectives; ++i) {
      pool.push_back(select_local_group(fabric, placement, placer));
    }
  }

  SimTime t = 0;
  for (int i = 0; i < config.collectives; ++i) {
    t += static_cast<SimTime>(arrivals.exponential(mean_gap_ns));
    GroupSelection group =
        pool.empty() ? select_local_group(fabric, placement, placer)
                     : pool[static_cast<std::size_t>(i) % pool.size()];
    const auto id = static_cast<std::uint64_t>(i) + 1;
    queue.at(t, [&runner, &config, id, group = std::move(group)]() mutable {
      submit_collective(runner, config.collective, config.scheme, id, 0,
                        group.source, std::move(group.destinations),
                        config.message_bytes);
    });
  }

  ScenarioResult result =
      run_and_harvest(*engine, runner, fabric.topo(),
                      {.deadline_seconds = config.deadline_seconds,
                       .watchdog = config.watchdog,
                       .byte_audit = config.byte_audit});
  if (injector) {
    result.fault_downs = injector->pairs_failed();
    result.fault_ups = injector->pairs_restored();
    result.recovered_deliveries = recovered;
  }
  return result;
}

SingleResult run_single_broadcast(const Fabric& fabric,
                                  const SingleRunOptions& options) {
  const std::unique_ptr<Engine> engine =
      make_engine(fabric.topo(), options.sim, options.fidelity, options.shards,
                  options.byte_audit);
  CollectiveRunner runner(fabric, engine->data(), engine->control(),
                          Rng(options.sim.seed), options.runner);
  submit_collective(runner, CollectiveKind::Broadcast, options.scheme, 1, 0,
                    options.group.source, options.group.destinations,
                    options.message_bytes);
  const ScenarioResult run =
      run_and_harvest(*engine, runner, fabric.topo(),
                      {.byte_audit = options.byte_audit,
                       .drain_context = "single broadcast",
                       .partial_context = "single broadcast"});
  if (runner.records().empty() || !runner.records().front().finished) {
    throw std::runtime_error("single broadcast did not complete");
  }
  return {.cct_seconds = runner.records().front().cct_seconds(),
          .fabric_bytes = run.fabric_bytes,
          .core_bytes = run.core_bytes,
          .nvlink_bytes = bytes_on_links(engine->data(), fabric.topo(), false,
                                         false, true)};
}

}  // namespace peel
