// Multi-tenant continuous-traffic engine (ROADMAP item 3; docs/workload.md).
//
// run_workload turns the per-figure harness into a warehouse-scale
// simulator: Poisson/trace-driven *jobs* arrive on one shared fabric, each
// draws a placement policy (bin-packed / fragmented / buddy-aligned),
// resubmits its collective for a number of training iterations, and churns
// its membership mid-life. Group-state schemes (Optimal, Orca) must install
// per-group entries in a MulticastGroupTable before each membership epoch —
// admission fails when some switch's table is full — while PEEL's k-1 static
// prefix rules admit every job with zero controller traffic. The result
// carries the paper's cloud-regime metrics: CCT distributions under
// contention, per-job outcomes (inter-job isolation), admission-failure
// counts, TCAM occupancy over time, and the controller update rate that
// Orca-style designs pay N(10ms, 5ms) for per update.
//
// Determinism: in the default open-loop mode every control-plane action
// (arrival, iteration submission, churn, install/remove) fires at a time
// fixed by (config, seed) alone, so the control-plane outputs — admission
// counts, TCAM series, controller updates, per-job placements — are
// byte-identical across `shards` in {0, 2, 8, ...} AND any sweep thread
// count; data-plane timing (CCT samples, sim counters) is byte-identical
// across any two POSITIVE shard counts (the PR 7 guarantee) but differs
// slightly between solo and sharded engines (wire-delay replay). Closed-loop
// mode chains iterations off completions, so its control plane inherits the
// data plane's engine sensitivity: positive shard counts still match each
// other; solo differs.
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/churn.h"

namespace peel {

struct WorkloadConfig {
  Scheme scheme = Scheme::Peel;
  CollectiveKind collective = CollectiveKind::Broadcast;
  ArrivalOptions arrivals;
  ChurnOptions churn;

  /// Multicast entries per switch for group-state schemes (Optimal, Orca);
  /// 0 = unlimited tables (count installs, never reject). Ignored by
  /// PEEL/Ring/BinaryTree/InNet, which keep no per-group switch state.
  std::size_t table_capacity = 512;
  /// A job whose group-state install is rejected (at arrival or after
  /// churn) degrades to host-side Ring unicast instead of being dropped;
  /// false drops it (counts as rejected, runs nothing).
  bool ring_fallback = true;
  /// Chain iteration i+1 off iteration i's completion (closed loop) rather
  /// than submitting at fixed arrival + i*gap instants (open loop). See the
  /// determinism note above.
  bool closed_loop = false;

  SimConfig sim;
  RunnerOptions runner;
  std::uint64_t seed = 1;
  /// Engine selector, as ScenarioConfig::shards (0 = single-queue solo).
  int shards = 0;
  /// Fidelity selector, as ScenarioConfig::fidelity (Flow requires shards 0).
  Fidelity fidelity = Fidelity::Packet;
  bool byte_audit = byte_audit_env_default();
  bool watchdog = false;
  /// Simulated-time budget; 0 = run to drain.
  double deadline_seconds = 0.0;
};

/// One point of the TCAM occupancy time series, sampled after every
/// group-table transaction (install, reject, remove).
struct TcamSample {
  double seconds = 0.0;
  std::size_t groups = 0;          ///< groups currently installed
  std::size_t total_entries = 0;   ///< entries across all switches
  std::size_t max_occupancy = 0;   ///< fullest switch's entry count
  std::size_t admission_failures = 0;  ///< cumulative rejects so far
};

/// Per-job summary (inter-job isolation view).
struct JobOutcome {
  std::uint64_t job = 0;
  PlacementPolicy policy = PlacementPolicy::BinPacked;
  Scheme scheme = Scheme::Peel;  ///< scheme the job actually ran under
  int group_size = 0;
  double arrival_seconds = 0.0;
  bool admitted = false;   ///< got its requested multicast service
  bool fell_back = false;  ///< degraded to Ring at arrival or after churn
  bool rejected = false;   ///< dropped without running (ring_fallback off)
  int iterations_finished = 0;
  int churn_events = 0;
  double mean_cct_seconds = 0.0;  ///< over its finished iterations
};

struct WorkloadResult {
  /// CCT across every finished collective of every job.
  Samples cct_seconds;
  /// Mean CCT per job (one sample per job that finished >= 1 iteration) —
  /// the inter-job isolation distribution: its p99/p50 spread is the
  /// contention-stretch a tenant experiences.
  Samples job_mean_cct_seconds;
  std::vector<JobOutcome> jobs;

  std::size_t jobs_submitted = 0;
  std::size_t jobs_admitted = 0;   ///< full multicast service end to end
  std::size_t jobs_fell_back = 0;  ///< ran degraded (Ring) at least partly
  std::size_t jobs_rejected = 0;   ///< never ran
  /// Group-table installs refused because some switch was full (arrival +
  /// churn re-installs). Always 0 for schemes without per-group state.
  std::size_t admission_failures = 0;

  /// Controller-driven switch-table transactions: installs + removes,
  /// including churn re-installs. PEEL's static rules never transact.
  std::uint64_t controller_updates = 0;
  /// controller_updates / sim_seconds — the update rate an Orca-style
  /// controller (N(10ms,5ms) per flow setup, fig4) must sustain.
  double controller_update_rate_hz = 0.0;
  std::uint64_t group_installs = 0;
  std::uint64_t group_removes = 0;
  std::uint64_t churn_events = 0;

  /// Static rules PEEL pre-installs per aggregation switch (k-1 on a k-ary
  /// fat-tree) — the constant the group-table pressure is measured against.
  std::size_t static_rules_per_switch = 0;
  std::size_t tcam_peak_groups = 0;
  std::size_t tcam_peak_occupancy = 0;  ///< fullest switch, over time
  std::size_t tcam_peak_entries = 0;    ///< fabric total, over time
  std::vector<TcamSample> tcam_series;

  /// Underlying simulator counters and telemetry (cct_seconds here is the
  /// same data; fabric/core bytes, events, unfinished, audit summary...).
  ScenarioResult sim;
};

/// Runs the continuous-traffic workload. Pure function of (fabric, config):
/// builds its own engine/runner/RNGs, so concurrent calls on the same const
/// Fabric are safe. Throws like run_scenario (audit violations, watchdog).
[[nodiscard]] WorkloadResult run_workload(const Fabric& fabric,
                                          const WorkloadConfig& config);

}  // namespace peel
