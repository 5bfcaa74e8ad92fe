#include "perfbench/workloads.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/harness/bench_env.h"
#include "src/topology/failures.h"
#include "src/workload/churn.h"

namespace perfbench {

using namespace peel;

namespace {

// RNG fork tags of run_scenario / run_workload (src/harness/experiment.cpp,
// src/harness/workload.cpp). The assembled traced driver must draw exactly
// the same inputs, so these mirror the drivers' fork order.
constexpr std::uint64_t kForkArrivals = 0xa41;
constexpr std::uint64_t kForkPlacer = 0x97ace;
constexpr std::uint64_t kForkFlap = 0xf417;
constexpr std::uint64_t kForkChurn = 0xc4112;

struct Seeds {
  std::uint64_t scenario;
  std::uint64_t sim;
};

/// Independent per-workload seeds from a repetition seed.
Seeds derive_seeds(std::uint64_t seed, const std::string& name) {
  std::uint64_t tag = 0xcbf29ce484222325ULL;  // FNV-1a of the name
  for (const char ch : name) {
    tag = (tag ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  Rng rng(seed ^ tag);
  const std::uint64_t scenario = rng.next_u64();
  return Seeds{scenario, rng.next_u64()};
}

ScenarioConfig packet_base(Bytes message_bytes, const Seeds& seeds) {
  ScenarioConfig c;
  c.scheme = Scheme::Peel;
  c.message_bytes = message_bytes;
  c.sim = bench::scaled_sim(message_bytes, seeds.sim);
  c.seed = seeds.scenario;
  c.byte_audit = false;
  return c;
}

/// Sets a flap process whose horizon is the pass's actual arrival span, so
/// links keep flapping for as long as collectives are still arriving.
void add_flaps(ScenarioConfig& c, const Fabric& fabric) {
  const ScenarioInputs clean = scenario_inputs(c, fabric, nullptr);
  c.faults.flap.mtbf_seconds = 2e-3;
  c.faults.flap.mttr_seconds = 300e-6;
  c.faults.flap.links = 4;
  c.faults.flap.horizon_seconds = sim_to_seconds(clean.arrivals.back());
}

}  // namespace

std::uint64_t repetition_seed(std::uint64_t seed, int repetition) {
  if (repetition == 0) return seed;
  return Rng(seed).fork(static_cast<std::uint64_t>(repetition)).next_u64();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bcast_packet", "collectives_flap", "tenancy_flow", "bcast_sharded"};
  return names;
}

TopologySpec topology_for(const std::string& name) {
  TopologySpec spec;
  if (name == "tenancy_flow") {
    FatTreeConfig big;
    big.k = 32;
    big.hosts_per_tor = 1;
    big.gpus_per_host = 1;
    spec.fat_tree = big;
  } else if (name == "collectives_flap") {
    // Figure 7's leaf-spine: the fabric on which the simulator rebuilds
    // PEEL trees around failed links (layer peeling). On a fat-tree the
    // static PEEL trees throw once a flapped switch link lies on their path.
    spec.leaf_spine = LeafSpineConfig{16, 48, 2, 8};
  } else if (name == "bcast_packet" || name == "bcast_sharded") {
    spec.fat_tree = FatTreeConfig{16, 8, 8};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::string describe(const TopologySpec& spec, const Fabric& fabric) {
  char buf[256];
  if (spec.fat_tree) {
    std::snprintf(buf, sizeof(buf),
                  "fat-tree k=%d hosts/tor=%d gpus/host=%d endpoints=%zu",
                  spec.fat_tree->k, fabric.hosts_per_rack(),
                  spec.fat_tree->gpus_per_host, fabric.endpoints().size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "leaf-spine spines=%d leaves=%d hosts/leaf=%d gpus/host=%d "
                  "endpoints=%zu",
                  spec.leaf_spine->spines, spec.leaf_spine->leaves,
                  spec.leaf_spine->hosts_per_leaf,
                  spec.leaf_spine->gpus_per_host, fabric.endpoints().size());
  }
  return buf;
}

BuiltFabric::BuiltFabric(const TopologySpec& spec) {
  if (spec.fat_tree) {
    fat_tree_.emplace(build_fat_tree(*spec.fat_tree));
  } else {
    leaf_spine_.emplace(build_leaf_spine(*spec.leaf_spine));
  }
}

BuiltFabric::BuiltFabric(const Fabric& fabric) {
  if (fabric.fat_tree) {
    fat_tree_.emplace(*fabric.fat_tree);
  } else {
    leaf_spine_.emplace(*fabric.leaf_spine);
  }
}

Fabric BuiltFabric::view() const {
  return fat_tree_ ? Fabric::of(*fat_tree_) : Fabric::of(*leaf_spine_);
}

Topology& BuiltFabric::topo() {
  return fat_tree_ ? fat_tree_->topo : leaf_spine_->topo;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, const Fabric& fabric) {
  const bool toy = scale == Scale::Toy;
  const Seeds seeds = derive_seeds(seed, name);
  Workload w;
  w.name = name;
  w.topology = topology_for(name);

  if (name == "bcast_packet") {
    ScenarioConfig c = packet_base(8 * kMiB, seeds);
    c.collective = CollectiveKind::Broadcast;
    c.group_size = 64;
    c.group_pool = 4;
    c.offered_load = 0.30;
    c.collectives = toy ? 8 : 100;
    w.passes.push_back({"peel_broadcast", c});
  } else if (name == "collectives_flap") {
    ScenarioConfig ag = packet_base(8 * kMiB, seeds);
    ag.collective = CollectiveKind::AllGather;
    ag.group_size = 64;
    ag.group_pool = 0;
    ag.runner.peel_asymmetric = true;
    ag.offered_load = 0.30;
    ag.collectives = toy ? 4 : 60;
    add_flaps(ag, fabric);
    w.passes.push_back({"peel_allgather", ag});

    ScenarioConfig ar = packet_base(8 * kMiB, seeds);
    ar.scheme = Scheme::InNet;
    ar.collective = CollectiveKind::AllReduce;
    ar.group_size = 64;
    ar.group_pool = 0;
    // Reductions that overlap in time swing the event count and peak memory
    // by up to 2x between input sets (congestion through ECN/CNP and queued
    // combiner state); at 0.5% load they almost never overlap, and the long
    // arrival span keeps links flapping throughout (about a thousand
    // topology deltas and recovery passes per pass).
    ar.offered_load = 0.005;
    ar.collectives = toy ? 4 : 60;
    ar.seed = Rng(seeds.scenario).fork(2).next_u64();
    add_flaps(ar, fabric);
    w.passes.push_back({"innet_allreduce", ar});
  } else if (name == "tenancy_flow") {
    WorkloadConfig wc;
    wc.scheme = Scheme::Peel;
    wc.fidelity = Fidelity::Flow;
    wc.arrivals.jobs = toy ? 8 : 40;
    wc.arrivals.message_bytes = 512 * kKiB;
    wc.arrivals.group_sizes = {8, 16, 32};
    wc.arrivals.iterations = 2;
    wc.arrivals.iteration_gap_seconds = 100e-6;
    wc.arrivals.hold_seconds = 1e-3;
    wc.arrivals.fragmented_share = 0.25;
    wc.arrivals.buddy_share = 0.5;
    wc.arrivals.rate_per_second =
        job_rate_for_load(fabric, 0.20, wc.arrivals.message_bytes, 16,
                          wc.arrivals.iterations);
    wc.churn.events_per_job = 1;
    wc.sim.seed = seeds.sim;
    wc.seed = seeds.scenario;
    wc.byte_audit = false;
    w.tenancy = wc;
  } else if (name == "bcast_sharded") {
    ScenarioConfig c = packet_base(4 * kMiB, seeds);
    c.collective = CollectiveKind::Broadcast;
    // 2048 GPUs on the k=16 fat-tree span 4 pods, so every collective
    // crosses domain boundaries (mailboxes, lookahead windows).
    c.group_size = 2048;
    c.group_pool = 2;
    c.collectives = toy ? 2 : 16;
    c.shards = 3;
    w.passes.push_back({"peel_broadcast_sharded", c});
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

ScenarioInputs scenario_inputs(const ScenarioConfig& config,
                               const Fabric& fabric, Tracer* tracer) {
  ScenarioInputs in;
  const Rng rng(config.seed);
  {
    Span span(tracer, kArrivals);
    const double lambda =
        arrival_rate_for_load(fabric, config.offered_load,
                              config.message_bytes, config.group_size);
    const double mean_gap_ns = 1e9 / lambda;
    Rng arrivals = rng.fork(kForkArrivals);
    in.arrivals.reserve(static_cast<std::size_t>(config.collectives));
    SimTime t = 0;
    for (int i = 0; i < config.collectives; ++i) {
      t += static_cast<SimTime>(arrivals.exponential(mean_gap_ns));
      in.arrivals.push_back(t);
    }
  }

  PlacementOptions placement;
  placement.group_size = config.group_size;
  placement.fragmentation = config.fragmentation;
  placement.buddy_aligned = config.buddy_aligned;
  Rng placer = rng.fork(kForkPlacer);
  const auto place = [&] {
    Span span(tracer, kPlacement);
    return select_local_group(fabric, placement, placer);
  };
  std::vector<GroupSelection> pool;
  for (int i = 0; i < config.group_pool && i < config.collectives; ++i) {
    pool.push_back(place());
  }
  in.groups.reserve(static_cast<std::size_t>(config.collectives));
  for (int i = 0; i < config.collectives; ++i) {
    in.groups.push_back(pool.empty()
                            ? place()
                            : pool[static_cast<std::size_t>(i) % pool.size()]);
  }

  if (config.faults.any()) {
    in.faults = config.faults.schedule;
    if (config.faults.flap.enabled()) {
      const std::vector<LinkId> candidates =
          fabric.leaf_spine ? duplex_spine_leaf_links(fabric.topo())
                            : duplex_fabric_links(fabric.topo());
      Rng flap_rng = rng.fork(kForkFlap);
      in.faults.merge(
          generate_flap_schedule(candidates, config.faults.flap, flap_rng));
    }
    in.faults.normalize();
  }
  return in;
}

TenancyInputs tenancy_inputs(const WorkloadConfig& config,
                             const Fabric& fabric, Tracer* tracer) {
  TenancyInputs in;
  const Rng rng(config.seed);
  {
    Span span(tracer, kArrivals);
    Rng arrivals = rng.fork(kForkArrivals);
    in.jobs = generate_arrivals(config.arrivals, arrivals);
  }
  Rng placer = rng.fork(kForkPlacer);
  in.placements.reserve(in.jobs.size());
  for (const JobSpec& job : in.jobs) {
    Span span(tracer, kPlacement);
    in.placements.push_back(select_local_group(
        fabric,
        placement_for(job.policy, job.group_size,
                      config.arrivals.fragmentation),
        placer));
  }
  if (config.churn.enabled()) {
    Rng churner = rng.fork(kForkChurn);
    for (GroupSelection& g : in.placements) {
      for (int e = 0; e < config.churn.events_per_job; ++e) {
        Span span(tracer, kChurn);
        if (churn_group(fabric, g.destinations, g.source,
                        config.churn.replace_fraction, churner) > 0) {
          ++in.churns;
        }
      }
    }
  }
  return in;
}

std::string PassOutcome::signature() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "events=%" PRIu64 " segments=%" PRIu64 " lost=%" PRIu64
                " fabric_bytes=%" PRId64 " core_bytes=%" PRId64
                " finished=%zu/%zu downs=%" PRIu64 " recovered=%zu"
                " cct_mean_s=%.17g",
                events, segments, segments_lost,
                static_cast<std::int64_t>(fabric_bytes),
                static_cast<std::int64_t>(core_bytes), finished, attempted,
                fault_downs, recovered_deliveries, cct_mean_s);
  return buf;
}

PassOutcome outcome_of(const ScenarioConfig& config,
                       const ScenarioResult& r) {
  PassOutcome o;
  o.attempted = static_cast<std::size_t>(config.collectives);
  o.finished = r.cct_seconds.count();
  o.events = r.events;
  o.segments = r.segments;
  o.segments_lost = r.segments_lost;
  o.ecn_marks = r.ecn_marks;
  o.pfc_pauses = r.pfc_pauses;
  o.fabric_bytes = r.fabric_bytes;
  o.core_bytes = r.core_bytes;
  o.cct_mean_s = r.cct_seconds.empty() ? 0.0 : r.cct_seconds.mean();
  o.recovered_deliveries = r.recovered_deliveries;
  o.fault_downs = r.fault_downs;
  o.fault_ups = r.fault_ups;
  o.plan_cache = r.plan_cache;
  return o;
}

PassOutcome outcome_of(const WorkloadConfig& config,
                       const WorkloadResult& r) {
  PassOutcome o = outcome_of(ScenarioConfig{}, r.sim);
  // Every PEEL job is admitted (no group state), so each runs all of its
  // iterations; a finished iteration is one finished collective.
  o.attempted = static_cast<std::size_t>(config.arrivals.jobs) *
                static_cast<std::size_t>(config.arrivals.iterations);
  o.finished = r.cct_seconds.count();
  return o;
}

PassOutcome run_public(const Fabric& fabric, const ScenarioPass& pass,
                       bool audit) {
  ScenarioConfig c = pass.config;
  c.byte_audit = audit;
  c.watchdog = audit;
  return outcome_of(c, run_scenario(fabric, c));
}

PassOutcome run_public(const Fabric& fabric, const WorkloadConfig& config,
                       bool audit) {
  WorkloadConfig c = config;
  c.byte_audit = audit;
  c.watchdog = audit;
  return outcome_of(c, run_workload(fabric, c));
}

}  // namespace perfbench
