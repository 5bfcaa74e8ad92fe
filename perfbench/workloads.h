// The benchmark's workloads, their inputs, and the passes that run them.
//
// A workload is a fixed topology plus one or more scenario passes
// (run_scenario) or one tenancy pass (run_workload). Every input is derived
// from the command-line seed; the simulator receives only the generated
// configs. See README.md in this directory for why each workload exists and
// which layer it loads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/faults/schedule.h"
#include "src/harness/experiment.h"
#include "src/harness/workload.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace perfbench {

enum class Scale { Full, Toy };

struct ScenarioPass {
  std::string label;
  peel::ScenarioConfig config;
};

/// Exactly one of the two is set.
struct TopologySpec {
  std::optional<peel::FatTreeConfig> fat_tree;
  std::optional<peel::LeafSpineConfig> leaf_spine;
};

/// Owns a built topology; Fabric views point into it, so it never moves.
class BuiltFabric {
 public:
  explicit BuiltFabric(const TopologySpec& spec);
  /// Deep copy of `fabric`'s topology (for runs that mutate it).
  explicit BuiltFabric(const peel::Fabric& fabric);
  BuiltFabric(const BuiltFabric&) = delete;
  BuiltFabric& operator=(const BuiltFabric&) = delete;

  [[nodiscard]] peel::Fabric view() const;
  [[nodiscard]] peel::Topology& topo();

 private:
  std::optional<peel::FatTree> fat_tree_;
  std::optional<peel::LeafSpine> leaf_spine_;
};

struct Workload {
  std::string name;
  TopologySpec topology;
  std::vector<ScenarioPass> passes;          ///< scenario workloads
  std::optional<peel::WorkloadConfig> tenancy;  ///< tenancy_flow
};

/// Seed of repetition `repetition` of a run with command-line seed `seed`.
/// Repetition 0 uses the seed itself; each later repetition draws fresh
/// inputs, so a run's median averages over many input sets.
[[nodiscard]] std::uint64_t repetition_seed(std::uint64_t seed, int repetition);

/// The four workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Topology of a workload (needed before the fabric exists). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] TopologySpec topology_for(const std::string& name);

/// One-line description of a topology for the config echo.
[[nodiscard]] std::string describe(const TopologySpec& spec,
                                   const peel::Fabric& fabric);

/// Full workload definition; rates and flap horizons depend on the fabric.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, Scale scale,
                                     const peel::Fabric& fabric);

/// Inputs run_scenario draws internally, generated here from the same RNG
/// forks so the assembled driver can schedule exactly the same collectives.
struct ScenarioInputs {
  std::vector<peel::SimTime> arrivals;
  std::vector<peel::GroupSelection> groups;  ///< one per collective
  peel::FaultSchedule faults;                ///< normalized; empty = no faults
};

/// Inputs run_workload draws internally: the arrival schedule, each job's
/// placement in arrival order, and one churn event per job replayed in job
/// order (the workload's own churn order depends on simulated timing).
struct TenancyInputs {
  std::vector<peel::JobSpec> jobs;
  std::vector<peel::GroupSelection> placements;
  int churns = 0;
};

/// `tracer` (may be null) records kArrivals / kPlacement spans.
[[nodiscard]] ScenarioInputs scenario_inputs(const peel::ScenarioConfig& config,
                                             const peel::Fabric& fabric,
                                             Tracer* tracer);
/// `tracer` (may be null) records kArrivals / kPlacement / kChurn spans.
[[nodiscard]] TenancyInputs tenancy_inputs(const peel::WorkloadConfig& config,
                                           const peel::Fabric& fabric,
                                           Tracer* tracer);

/// What one pass produced, reduced to what the benchmark checks and counts.
struct PassOutcome {
  std::size_t attempted = 0;
  std::size_t finished = 0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_lost = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pfc_pauses = 0;
  peel::Bytes fabric_bytes = 0;
  peel::Bytes core_bytes = 0;
  double cct_mean_s = 0.0;
  std::size_t recovered_deliveries = 0;
  std::uint64_t fault_downs = 0;
  std::uint64_t fault_ups = 0;
  peel::PlanCacheStats plan_cache;

  /// Byte-comparable result signature (events, segments, bytes, mean CCT).
  [[nodiscard]] std::string signature() const;
};

[[nodiscard]] PassOutcome outcome_of(const peel::ScenarioConfig& config,
                                     const peel::ScenarioResult& result);
[[nodiscard]] PassOutcome outcome_of(const peel::WorkloadConfig& config,
                                     const peel::WorkloadResult& result);

/// One pass through the unchanged public drivers. `audit` turns on the byte
/// audit (and reduction ledger) plus the stuck-flow watchdog; their
/// exceptions propagate.
[[nodiscard]] PassOutcome run_public(const peel::Fabric& fabric,
                                     const ScenarioPass& pass, bool audit);
[[nodiscard]] PassOutcome run_public(const peel::Fabric& fabric,
                                     const peel::WorkloadConfig& config,
                                     bool audit);

}  // namespace perfbench
