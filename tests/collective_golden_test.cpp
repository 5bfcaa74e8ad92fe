// Golden signatures for every (collective, scheme) phase shape on every
// engine, clean and under link flapping with automatic recovery. Each case
// hashes the simulated outputs of one run_scenario cell — CCT samples, event
// and segment counts, byte totals, losses, recovered deliveries, plan-cache
// traffic — so any change to stream-open order, send order, chunk ids,
// forwarding rules, RNG draws or recovery grouping shows up as a signature
// mismatch, not as a silent drift in some committed figure.
//
// A second table pins run_workload the same way: open- and closed-loop job
// streams with churn and a capacity-limited Optimal group table (so the
// admission-reject, Ring-fallback and drop paths all run) on every engine,
// hashing the shared simulator counters plus every workload-level field.
//
// The constants pin current behavior. A change that moves outputs on
// purpose regenerates them: run the binary with PEEL_GOLDEN_PRINT=1 and
// paste the printed table over kGolden below.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/workload.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

enum class Engine { Solo, Sharded, Flow };

struct Case {
  const char* name;
  CollectiveKind kind;
  Scheme scheme;
  Engine engine = Engine::Solo;
  bool flap = false;     ///< leaf-spine with flapping links + recovery
  int stripes = 1;
  bool fast_controller = false;  ///< 20 us setup: ProgCores migrates mid-run
  bool unicast_recovery = false;  ///< RunnerOptions::recovery_trees off
  double deadline_seconds = 0.0;  ///< > 0: stop there (run_until path)
  bool watchdog = true;
};

struct Golden {
  const char* name;
  std::uint64_t signature;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const char* s) {
    for (; *s != '\0'; ++s) add(static_cast<std::uint64_t>(*s));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_result(Fnv& h, const ScenarioResult& r) {
  for (double v : r.cct_seconds.values()) h.add(v);
  h.add(r.sim_seconds);
  h.add(r.events);
  h.add(r.segments);
  h.add(r.segments_lost);
  h.add(static_cast<std::uint64_t>(r.fabric_bytes));
  h.add(static_cast<std::uint64_t>(r.core_bytes));
  h.add(static_cast<std::uint64_t>(r.reduce_sram_peak));
  h.add(static_cast<std::uint64_t>(r.unfinished));
  h.add(r.fault_downs);
  h.add(r.fault_ups);
  h.add(static_cast<std::uint64_t>(r.recovered_deliveries));
  h.add(r.plan_cache.hits);
  h.add(r.plan_cache.misses);
}

std::uint64_t signature_of(const ScenarioResult& r) {
  Fnv h;
  add_result(h, r);
  return h.value();
}

std::uint64_t error_signature(const std::exception& e, std::string& detail) {
  detail = std::string("error: ") + e.what();
  Fnv h;
  h.add("error: ");
  h.add(e.what());
  return h.value();
}

/// Runs one case; `detail` receives a human-readable summary of the run.
std::uint64_t run_case(const Case& c, std::string& detail) {
  static const FatTree ft = [] {
    FatTreeConfig cfg;
    cfg.k = 4;
    cfg.gpus_per_host = 2;
    return build_fat_tree(cfg);
  }();
  static const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});

  ScenarioConfig config;
  config.scheme = c.scheme;
  config.collective = c.kind;
  config.group_size = 12;
  config.message_bytes = 384 * kKiB;
  config.offered_load = 0.3;
  config.collectives = 6;
  config.group_pool = 3;
  config.seed = 4242;
  config.byte_audit = true;
  config.watchdog = c.watchdog;
  config.deadline_seconds = c.deadline_seconds;
  config.runner.stripe_trees = c.stripes;
  if (c.fast_controller) {
    config.runner.controller_mean = 20 * kMicrosecond;
    config.runner.controller_stddev = 5 * kMicrosecond;
  }
  config.runner.recovery_trees = !c.unicast_recovery;
  if (c.engine == Engine::Sharded) config.shards = 2;
  if (c.engine == Engine::Flow) config.fidelity = Fidelity::Flow;
  Fabric fabric = Fabric::of(ft);
  if (c.flap) {
    fabric = Fabric::of(ls);
    config.runner.peel_asymmetric = true;
    config.faults.flap.mtbf_seconds = 60e-6;
    config.faults.flap.mttr_seconds = 25e-6;
    config.faults.flap.links = 12;
    config.faults.flap.horizon_seconds = 400e-6;
  }
  try {
    const ScenarioResult r = run_scenario(fabric, config);
    detail = std::to_string(r.events) + " events, " +
             std::to_string(r.fault_downs) + " downs, " +
             std::to_string(r.recovered_deliveries) + " recovered";
    return signature_of(r);
  } catch (const std::exception& e) {
    return error_signature(e, detail);
  }
}

using CK = CollectiveKind;
using S = Scheme;

const Case kCases[] = {
    {"bcast_ring", CK::Broadcast, S::Ring},
    {"bcast_tree", CK::Broadcast, S::BinaryTree},
    {"bcast_optimal", CK::Broadcast, S::Optimal},
    {"bcast_optimal_striped", CK::Broadcast, S::Optimal, Engine::Solo, false, 2},
    {"bcast_orca", CK::Broadcast, S::Orca},
    {"bcast_peel", CK::Broadcast, S::Peel},
    {"bcast_peel_striped", CK::Broadcast, S::Peel, Engine::Solo, false, 3},
    {"bcast_progcores", CK::Broadcast, S::PeelProgCores},
    {"bcast_progcores_migrating", CK::Broadcast, S::PeelProgCores, Engine::Solo,
     false, 1, true},
    {"allgather_ring", CK::AllGather, S::Ring},
    {"allgather_optimal", CK::AllGather, S::Optimal},
    {"allgather_orca", CK::AllGather, S::Orca},
    {"allgather_peel", CK::AllGather, S::Peel},
    {"allgather_progcores", CK::AllGather, S::PeelProgCores},
    {"allreduce_ring", CK::AllReduce, S::Ring},
    {"allreduce_tree", CK::AllReduce, S::BinaryTree},
    {"allreduce_optimal", CK::AllReduce, S::Optimal},
    {"allreduce_peel", CK::AllReduce, S::Peel},
    {"allreduce_progcores", CK::AllReduce, S::PeelProgCores},
    {"allreduce_innet", CK::AllReduce, S::InNet},

    {"sharded_bcast_tree", CK::Broadcast, S::BinaryTree, Engine::Sharded},
    {"sharded_bcast_peel", CK::Broadcast, S::Peel, Engine::Sharded},
    {"sharded_allgather_orca", CK::AllGather, S::Orca, Engine::Sharded},
    {"sharded_allreduce_ring", CK::AllReduce, S::Ring, Engine::Sharded},
    {"sharded_allreduce_peel", CK::AllReduce, S::Peel, Engine::Sharded},
    {"sharded_allreduce_innet", CK::AllReduce, S::InNet, Engine::Sharded},

    {"flow_bcast_ring", CK::Broadcast, S::Ring, Engine::Flow},
    {"flow_bcast_progcores_migrating", CK::Broadcast, S::PeelProgCores,
     Engine::Flow, false, 1, true},
    {"flow_allgather_peel", CK::AllGather, S::Peel, Engine::Flow},
    {"flow_allreduce_tree", CK::AllReduce, S::BinaryTree, Engine::Flow},
    {"flow_allreduce_innet", CK::AllReduce, S::InNet, Engine::Flow},

    {"flap_bcast_ring", CK::Broadcast, S::Ring, Engine::Solo, true},
    {"flap_bcast_tree", CK::Broadcast, S::BinaryTree, Engine::Solo, true},
    {"flap_bcast_peel", CK::Broadcast, S::Peel, Engine::Solo, true},
    {"flap_bcast_orca", CK::Broadcast, S::Orca, Engine::Solo, true},
    {"flap_allgather_ring", CK::AllGather, S::Ring, Engine::Solo, true},
    {"flap_allgather_peel", CK::AllGather, S::Peel, Engine::Solo, true},
    {"flap_allreduce_ring", CK::AllReduce, S::Ring, Engine::Solo, true},
    {"flap_allreduce_ring_unicast", CK::AllReduce, S::Ring, Engine::Solo, true,
     1, false, true},
    {"flap_allgather_peel_unicast", CK::AllGather, S::Peel, Engine::Solo, true,
     1, false, true},
    {"flap_allreduce_tree", CK::AllReduce, S::BinaryTree, Engine::Solo, true},
    {"flap_allreduce_peel", CK::AllReduce, S::Peel, Engine::Solo, true},
    {"flap_allreduce_innet", CK::AllReduce, S::InNet, Engine::Solo, true},
    {"flap_sharded_allreduce_innet", CK::AllReduce, S::InNet, Engine::Sharded,
     true},
    {"flap_flow_allgather_ring", CK::AllGather, S::Ring, Engine::Flow, true},

    // Deadline-truncated runs: a partial result under the over-delivery
    // audit, and the watchdog's stuck-flow report (its message is hashed).
    {"deadline_bcast_peel", CK::Broadcast, S::Peel, Engine::Solo, false, 1,
     false, false, 150e-6, false},
    {"deadline_sharded_allgather_ring", CK::AllGather, S::Ring,
     Engine::Sharded, false, 1, false, false, 150e-6, false},
    {"deadline_watchdog_allreduce_ring", CK::AllReduce, S::Ring, Engine::Solo,
     false, 1, false, false, 150e-6, true},
};

const Golden kGolden[] = {
    {"bcast_ring", 0x969b3d436e08acb8ULL},
    {"bcast_tree", 0x80e912af1f5e397dULL},
    {"bcast_optimal", 0x18b53fc1d63d5d68ULL},
    {"bcast_optimal_striped", 0x51610f3c930ac622ULL},
    {"bcast_orca", 0x5697a51a4b1dd196ULL},
    {"bcast_peel", 0x3d180003ced3c5a2ULL},
    {"bcast_peel_striped", 0x2f74f037c8373dc1ULL},
    {"bcast_progcores", 0x3e37386132580a9aULL},
    {"bcast_progcores_migrating", 0xe2ecdd5138eda74aULL},
    {"allgather_ring", 0x6e1e585a19dfe37cULL},
    {"allgather_optimal", 0x5b39294c77f47fc1ULL},
    {"allgather_orca", 0x3cb8d08ad8d2b679ULL},
    {"allgather_peel", 0x73176dd65a58cd8eULL},
    {"allgather_progcores", 0x73176dd65a58cd8eULL},
    {"allreduce_ring", 0xa9cfdea6e946abc4ULL},
    {"allreduce_tree", 0x7a843fa9037d3250ULL},
    {"allreduce_optimal", 0x429c06d8742832daULL},
    {"allreduce_peel", 0x07eb75bc2b7d661eULL},
    {"allreduce_progcores", 0x07eb75bc2b7d661eULL},
    {"allreduce_innet", 0xa7ae24883709a647ULL},
    {"sharded_bcast_tree", 0x1cf9f778e7190565ULL},
    {"sharded_bcast_peel", 0x613893ac7ed3e500ULL},
    {"sharded_allgather_orca", 0x399a7a310497534eULL},
    {"sharded_allreduce_ring", 0xb5125ea9e08b22a0ULL},
    {"sharded_allreduce_peel", 0xdd87c5d1e207ac3eULL},
    {"sharded_allreduce_innet", 0xc7b6a247b84211c8ULL},
    {"flow_bcast_ring", 0xad42df56ed0dee7eULL},
    {"flow_bcast_progcores_migrating", 0xed53267c7cccd5c2ULL},
    {"flow_allgather_peel", 0x8b5d8530027448e3ULL},
    {"flow_allreduce_tree", 0xc064a0d701de4b87ULL},
    {"flow_allreduce_innet", 0xf26dc7e39ae66296ULL},
    {"flap_bcast_ring", 0x4c980d51c870707fULL},
    {"flap_bcast_tree", 0x7526febacea1b07eULL},
    {"flap_bcast_peel", 0x984db78810dfb287ULL},
    {"flap_bcast_orca", 0x985db8f791b783d7ULL},
    {"flap_allgather_ring", 0x34e6b54686f13aaeULL},
    {"flap_allgather_peel", 0xe88666972bca4965ULL},
    {"flap_allreduce_ring", 0x2aec344f0891b4aeULL},
    {"flap_allreduce_ring_unicast", 0x53598fd1e70a2f29ULL},
    {"flap_allgather_peel_unicast", 0xa7fac16e49bcaca8ULL},
    {"flap_allreduce_tree", 0x358e9a72c573f8ccULL},
    {"flap_allreduce_peel", 0xa194cbd79dac511bULL},
    {"flap_allreduce_innet", 0xf1c9724af7728f81ULL},
    {"flap_sharded_allreduce_innet", 0x3e7d6b399b83569cULL},
    {"flap_flow_allgather_ring", 0xe0603137fce5abd7ULL},
    {"deadline_bcast_peel", 0x07e6c9b80578211eULL},
    {"deadline_sharded_allgather_ring", 0xc4ed50c7ab92f1a8ULL},
    {"deadline_watchdog_allreduce_ring", 0x9e171edb40ea73c6ULL},
};

// --- run_workload ----------------------------------------------------------

struct WorkloadCase {
  const char* name;
  CollectiveKind kind;
  Scheme scheme;
  Engine engine = Engine::Solo;
  bool closed_loop = false;
  bool ring_fallback = true;
  double deadline_seconds = 0.0;
  bool watchdog = true;
};

std::uint64_t signature_of(const WorkloadResult& r) {
  Fnv h;
  add_result(h, r.sim);
  h.add(r.sim.pfc_pauses);
  h.add(r.sim.ecn_marks);
  h.add(static_cast<std::uint64_t>(r.sim.reduce_sram_peak_max_domain));
  h.add(r.sim.plan_cache.insertions);
  h.add(r.sim.plan_cache.invalidations);
  h.add(r.sim.plan_cache.repairs);
  h.add(r.sim.delta_applies);
  h.add(static_cast<std::uint64_t>(r.sim.telemetry != nullptr));
  if (r.sim.telemetry) {
    for (const FlowSpan& f : r.sim.telemetry->flows) {
      h.add(f.id);
      h.add(f.name.c_str());
      h.add(static_cast<std::uint64_t>(f.begin));
      h.add(static_cast<std::uint64_t>(f.end));
      h.add(static_cast<std::uint64_t>(f.finished));
    }
  }
  for (double v : r.cct_seconds.values()) h.add(v);
  for (double v : r.job_mean_cct_seconds.values()) h.add(v);
  for (const JobOutcome& j : r.jobs) {
    h.add(j.job);
    h.add(static_cast<std::uint64_t>(j.policy));
    h.add(static_cast<std::uint64_t>(j.scheme));
    h.add(static_cast<std::uint64_t>(j.group_size));
    h.add(j.arrival_seconds);
    h.add(static_cast<std::uint64_t>(j.admitted));
    h.add(static_cast<std::uint64_t>(j.fell_back));
    h.add(static_cast<std::uint64_t>(j.rejected));
    h.add(static_cast<std::uint64_t>(j.iterations_finished));
    h.add(static_cast<std::uint64_t>(j.churn_events));
    h.add(j.mean_cct_seconds);
  }
  h.add(static_cast<std::uint64_t>(r.jobs_submitted));
  h.add(static_cast<std::uint64_t>(r.jobs_admitted));
  h.add(static_cast<std::uint64_t>(r.jobs_fell_back));
  h.add(static_cast<std::uint64_t>(r.jobs_rejected));
  h.add(static_cast<std::uint64_t>(r.admission_failures));
  h.add(r.controller_updates);
  h.add(r.controller_update_rate_hz);
  h.add(r.group_installs);
  h.add(r.group_removes);
  h.add(r.churn_events);
  h.add(static_cast<std::uint64_t>(r.static_rules_per_switch));
  h.add(static_cast<std::uint64_t>(r.tcam_peak_groups));
  h.add(static_cast<std::uint64_t>(r.tcam_peak_occupancy));
  h.add(static_cast<std::uint64_t>(r.tcam_peak_entries));
  for (const TcamSample& t : r.tcam_series) {
    h.add(t.seconds);
    h.add(static_cast<std::uint64_t>(t.groups));
    h.add(static_cast<std::uint64_t>(t.total_entries));
    h.add(static_cast<std::uint64_t>(t.max_occupancy));
    h.add(static_cast<std::uint64_t>(t.admission_failures));
  }
  return h.value();
}

std::uint64_t run_workload_case(const WorkloadCase& c, std::string& detail) {
  static const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});

  WorkloadConfig config;
  config.scheme = c.scheme;
  config.collective = c.kind;
  config.arrivals.jobs = 10;
  config.arrivals.rate_per_second = 20'000.0;
  config.arrivals.group_sizes = {4, 6};
  config.arrivals.message_bytes = 128 * kKiB;
  config.arrivals.iterations = 3;
  config.arrivals.iteration_gap_seconds = 100e-6;
  config.arrivals.hold_seconds = 50e-6;
  config.arrivals.fragmented_share = 0.3;
  config.arrivals.buddy_share = 0.3;
  config.churn.events_per_job = 1;
  config.churn.replace_fraction = 0.34;
  config.table_capacity = 2;  // small enough that Optimal admission rejects
  config.ring_fallback = c.ring_fallback;
  config.closed_loop = c.closed_loop;
  config.seed = 99;
  config.sim.telemetry.enabled = true;
  config.byte_audit = true;
  config.watchdog = c.watchdog;
  config.deadline_seconds = c.deadline_seconds;
  if (c.engine == Engine::Sharded) config.shards = 2;
  if (c.engine == Engine::Flow) config.fidelity = Fidelity::Flow;
  try {
    const WorkloadResult r = run_workload(Fabric::of(ft), config);
    detail = std::to_string(r.sim.events) + " events, " +
             std::to_string(r.admission_failures) + " rejects, " +
             std::to_string(r.jobs_fell_back) + " fell back, " +
             std::to_string(r.sim.unfinished) + " unfinished";
    return signature_of(r);
  } catch (const std::exception& e) {
    return error_signature(e, detail);
  }
}

const WorkloadCase kWorkloadCases[] = {
    {"wl_solo_open", CK::Broadcast, S::Optimal},
    {"wl_solo_closed", CK::Broadcast, S::Optimal, Engine::Solo, true},
    {"wl_sharded_open", CK::Broadcast, S::Optimal, Engine::Sharded},
    {"wl_sharded_closed", CK::Broadcast, S::Optimal, Engine::Sharded, true},
    {"wl_flow_open", CK::Broadcast, S::Optimal, Engine::Flow},
    {"wl_flow_closed", CK::Broadcast, S::Optimal, Engine::Flow, true},
    {"wl_solo_open_allgather", CK::AllGather, S::Optimal},
    {"wl_sharded_closed_allreduce", CK::AllReduce, S::Optimal, Engine::Sharded,
     true},
    {"wl_solo_open_innet", CK::AllReduce, S::InNet},
    {"wl_solo_open_drop", CK::Broadcast, S::Optimal, Engine::Solo, false,
     false},
    {"wl_solo_deadline", CK::Broadcast, S::Optimal, Engine::Solo, false, true,
     300e-6, false},
    {"wl_flow_deadline_watchdog", CK::AllGather, S::Optimal, Engine::Flow,
     true, true, 300e-6, true},
};

const Golden kWorkloadGolden[] = {
    {"wl_solo_open", 0xb2b6b3b7c469f6bfULL},
    {"wl_solo_closed", 0xb4bc4e6490783da9ULL},
    {"wl_sharded_open", 0x4c2086986159e60bULL},
    {"wl_sharded_closed", 0x775bf19c45d02b46ULL},
    {"wl_flow_open", 0xcf688d7f257a3b68ULL},
    {"wl_flow_closed", 0x09e488a072101249ULL},
    {"wl_solo_open_allgather", 0x512f4c6d6a6a7c66ULL},
    {"wl_sharded_closed_allreduce", 0xc34a27f077a59e95ULL},
    {"wl_solo_open_innet", 0xd042a49a4bf4b666ULL},
    {"wl_solo_open_drop", 0x52c59adb5e3d6295ULL},
    {"wl_solo_deadline", 0x3345766542ebc336ULL},
    {"wl_flow_deadline_watchdog", 0x41ee2bd04d566e73ULL},
};

/// Runs every case and compares it with its pinned signature, or prints the
/// table to paste when PEEL_GOLDEN_PRINT is set.
template <typename CaseT, std::size_t N, std::size_t M, typename Run>
void check_table(const CaseT (&cases)[N], const Golden (&golden)[M],
                 Run run) {
  const bool print = std::getenv("PEEL_GOLDEN_PRINT") != nullptr;
  for (const CaseT& c : cases) {
    std::string detail;
    const std::uint64_t got = run(c, detail);
    if (print) {
      std::printf("    {\"%s\", 0x%016llxULL},  // %s\n", c.name,
                  static_cast<unsigned long long>(got), detail.c_str());
      continue;
    }
    const Golden* want = nullptr;
    for (const Golden& g : golden) {
      if (std::strcmp(g.name, c.name) == 0) want = &g;
    }
    ASSERT_NE(want, nullptr) << "no golden signature for " << c.name;
    EXPECT_EQ(got, want->signature) << c.name << " (" << detail << ")";
  }
}

TEST(CollectiveGolden, EverySchemeShapeMatchesItsSignature) {
  check_table(kCases, kGolden, run_case);
}

TEST(CollectiveGolden, EveryWorkloadEngineMatchesItsSignature) {
  check_table(kWorkloadCases, kWorkloadGolden, run_workload_case);
}

}  // namespace
}  // namespace peel
