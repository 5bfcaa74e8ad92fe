// Experiment driver: runs a stream of Poisson-arriving collectives through a
// fresh simulator instance and reports CCT statistics plus byte telemetry —
// the machinery behind every CCT figure (Figures 4–7).
//
// Entry points:
//   run_scenario(fabric, config)       — one scenario cell; the collective
//                                        flavor is config.collective
//   run_single_broadcast(fabric, opts) — exactly one broadcast on an idle
//                                        fabric (bandwidth accounting)
//
// Scenario cells are pure functions of (fabric, config): each call builds its
// own EventQueue/Network/Rng, so concurrent calls on the same const Fabric
// are safe — the property the sweep engine (src/harness/sweep.h) exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/collectives/runner.h"
#include "src/common/stats.h"
#include "src/faults/schedule.h"
#include "src/sim/telemetry.h"
#include "src/workload/placement.h"

namespace peel {

[[nodiscard]] const char* to_string(CollectiveKind kind) noexcept;

/// Simulation fidelity of a scenario cell (src/sim/flow_network.h).
///   Packet — segment-granular FIFO queues, DCQCN/ECN/PFC dynamics
///            (Network / ShardedNetwork).
///   Flow   — fluid max-min rates with fitted utilization caps; orders of
///            magnitude fewer events, CCT within the per-figure tolerances
///            stated in docs/simulator.md.
enum class Fidelity : std::uint8_t { Packet, Flow };

[[nodiscard]] const char* to_string(Fidelity f) noexcept;
/// Parses "packet" / "flow"; throws std::invalid_argument otherwise.
[[nodiscard]] Fidelity parse_fidelity(const std::string& name);

/// Default for ScenarioConfig::byte_audit / SingleRunOptions::byte_audit:
/// true iff the PEEL_BYTE_AUDIT environment variable is set to a non-empty,
/// non-"0" value. Lets CI audit every bench without touching call sites.
[[nodiscard]] bool byte_audit_env_default();

/// Mid-run fault injection + automatic recovery for a scenario
/// (src/faults/). When active, run_scenario deep-copies the fabric so
/// concurrent sweep cells never share the mutated topology — scenario cells
/// stay pure functions of (fabric, config).
struct FaultConfig {
  /// Explicit timed events, validated against the fabric at run start.
  FaultSchedule schedule;
  /// Generated random link flapping, seeded from the scenario seed.
  /// Candidates are the spine-leaf duplex pairs on a leaf–spine fabric and
  /// all switch-switch fabric pairs on a fat-tree. flap.horizon_seconds must
  /// be set explicitly (there is no implicit default).
  FlapProcess flap;
  /// Simulated delay between a fault event and the control plane reacting
  /// (the TopologyDelta — route flush + surgical plan repair — lands
  /// immediately; the recovery pass runs this much later — the "100 us
  /// detection" of the recovery tests).
  double detection_delay_seconds = 100e-6;
  /// Run CollectiveRunner::recover_all a detection delay after every fault
  /// event. false = inject only; the caller drives recovery itself.
  bool auto_recover = true;

  [[nodiscard]] bool any() const noexcept {
    return !schedule.events.empty() || flap.enabled();
  }
};

struct ScenarioConfig {
  Scheme scheme = Scheme::Peel;
  CollectiveKind collective = CollectiveKind::Broadcast;
  /// Member endpoints per collective (including the source).
  int group_size = 64;
  Bytes message_bytes = 8 * kMiB;
  /// Average offered load on host access links (§4 uses 0.30).
  double offered_load = 0.30;
  /// Collectives to sample.
  int collectives = 50;
  /// Distinct member sets to draw; 0 = a fresh group per collective.
  /// Training jobs resubmit the same collective on the same ranks every
  /// iteration, so a scenario that never repeats a group under-exercises
  /// the control plane's memoization. With N > 0 the first N placements
  /// are drawn up front and submissions cycle through them round-robin.
  int group_pool = 0;
  double fragmentation = 0.0;
  /// Buddy-aligned (whole rack/pod block) placements — the bin-packing
  /// discipline of production GPU schedulers [3]. Combine with
  /// `fragmentation` to model scheduler holes (§3.4).
  bool buddy_aligned = true;
  SimConfig sim;
  RunnerOptions runner;
  std::uint64_t seed = 1;
  /// Pod-sharded parallel engine (src/sim/sharded.h): > 0 selects the
  /// sharded engine with that many worker threads (clamped to the pod-domain
  /// count of the fabric); 0 = the classic single-queue engine. The domain
  /// decomposition is fixed by the topology, so any two positive values
  /// produce byte-identical results — the knob trades wall-clock only.
  int shards = 0;
  /// Simulation fidelity. Fidelity::Flow selects the fluid engine, which runs
  /// on a single queue (its event count is small enough that sharding would
  /// only add barrier overhead): combining it with `shards` > 0 throws
  /// std::invalid_argument.
  Fidelity fidelity = Fidelity::Packet;

  /// Byte-conservation audit (src/sim/telemetry.h): forces telemetry on and
  /// throws std::runtime_error at drain if any stream over-delivered, or —
  /// when the run drained cleanly with every collective finished — if any
  /// byte went unaccounted hop-by-hop or a receiver came up short.
  bool byte_audit = byte_audit_env_default();
  /// Stuck-flow watchdog: throw StuckFlowError (with per-flow diagnostics)
  /// instead of silently reporting `unfinished > 0` when the queue drains or
  /// the deadline passes with incomplete collectives.
  bool watchdog = false;
  /// Simulated-time budget; 0 = run to drain. With a deadline the run stops
  /// at that simulated instant even if collectives are still in flight.
  double deadline_seconds = 0.0;
  /// Mid-run fault schedule / link flapping + automatic recovery.
  FaultConfig faults;
};

struct ScenarioResult {
  Samples cct_seconds;
  /// Bytes serialized on fabric + host-NIC links (excludes NVLink).
  Bytes fabric_bytes = 0;
  /// Bytes serialized on switch-to-switch links only.
  Bytes core_bytes = 0;
  double sim_seconds = 0.0;       ///< simulated wall-clock at drain
  std::uint64_t events = 0;       ///< discrete events processed
  std::uint64_t segments = 0;     ///< segments serialized across all links
  /// Segments an outage ate: enqueued at a dead port, queued behind a
  /// failure, or in flight when the wire died (Network::segments_lost).
  std::uint64_t segments_lost = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t ecn_marks = 0;
  /// High-water mark of switch combining SRAM (in-network reduce streams
  /// only; 0 for every host-side scheme). Sharded runs report the sum of
  /// per-domain peaks — an upper bound on fabric-wide demand (domains need
  /// not peak at the same instant) — so this field is not byte-compared
  /// across shard counts.
  Bytes reduce_sram_peak = 0;
  /// Hottest single pod-domain's combining-SRAM peak — a lower bound on the
  /// fabric-wide peak and the per-switch-budget-relevant figure. Equals
  /// reduce_sram_peak on the solo engine (one fabric-wide gauge), so solo
  /// and sharded cells are comparable on this field:
  /// max_domain <= solo peak <= per-domain sum.
  Bytes reduce_sram_peak_max_domain = 0;
  std::size_t unfinished = 0;     ///< collectives that never completed (bug if > 0)
  std::uint64_t fault_downs = 0;  ///< duplex pairs that went down mid-run
  std::uint64_t fault_ups = 0;    ///< duplex pairs repaired mid-run
  /// (receiver, chunk) deliveries re-sent by automatic recovery passes.
  std::size_t recovered_deliveries = 0;
  /// Control-plane memoization counters (TreePlanCache): hits/misses across
  /// prefix-plan, asymmetric-tree, and recovery-tree construction, plus
  /// delta-driven surgical evictions (invalidations) and in-place repairs.
  PlanCacheStats plan_cache;
  /// Topology-delta apply cost on the control plane (route flush + surgical
  /// plan repair/eviction), measured per consumed TopologyDelta. Wall-clock
  /// microseconds — diagnostic output only, never part of byte-compared
  /// results. Zero when the run saw no faults.
  std::uint64_t delta_applies = 0;
  double delta_apply_total_us = 0.0;
  double delta_apply_max_us = 0.0;
  std::uint64_t delta_plans_repaired = 0;
  std::uint64_t delta_plans_evicted = 0;
  /// Non-null iff telemetry ran (config.sim.telemetry.enabled or
  /// config.byte_audit); flow lifetimes are filled from collective records.
  std::shared_ptr<const TelemetrySummary> telemetry;
};

/// Runs `config.collectives` Poisson-arriving collectives of one scheme,
/// kind, and size on an otherwise idle fabric.
[[nodiscard]] ScenarioResult run_scenario(const Fabric& fabric,
                                          const ScenarioConfig& config);

struct SingleResult {
  double cct_seconds = 0.0;
  Bytes fabric_bytes = 0;
  Bytes core_bytes = 0;
  Bytes nvlink_bytes = 0;
};

/// Options for run_single_broadcast. A struct rather than positional
/// parameters so call sites name what they set and stay valid as knobs grow.
struct SingleRunOptions {
  Scheme scheme = Scheme::Peel;
  GroupSelection group;
  Bytes message_bytes = 8 * kMiB;
  SimConfig sim;
  RunnerOptions runner;
  /// Same audit as ScenarioConfig::byte_audit (always a full conservation
  /// check — the single broadcast must complete).
  bool byte_audit = byte_audit_env_default();
  /// Same engine selector as ScenarioConfig::shards (0 = single-queue).
  int shards = 0;
  /// Same fidelity selector as ScenarioConfig::fidelity (Flow requires
  /// shards == 0).
  Fidelity fidelity = Fidelity::Packet;
};

/// Runs exactly one broadcast on an otherwise idle fabric (bandwidth
/// accounting and micro-validation). Throws std::runtime_error if the
/// broadcast never completes.
[[nodiscard]] SingleResult run_single_broadcast(const Fabric& fabric,
                                                const SingleRunOptions& options);

/// Sums serialized bytes over links of the given kinds.
[[nodiscard]] Bytes bytes_on_links(const DataPlane& net, const Topology& topo,
                                   bool fabric, bool host_nic, bool nvlink);

}  // namespace peel
