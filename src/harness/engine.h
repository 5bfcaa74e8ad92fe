// The one engine surface behind the harness drivers (run_scenario,
// run_single_broadcast, run_workload), plus the two steps they share: building
// a collective request and running + harvesting a run. Internal to
// src/harness — not part of the public API.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/collectives/runner.h"
#include "src/harness/experiment.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/sim/telemetry.h"

namespace peel::detail {

/// Counters every engine reports once its run has quiesced.
struct EngineStats {
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_lost = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t ecn_marks = 0;
  Bytes reduce_sram_peak = 0;
  /// The solo and flow engines keep one fabric-wide gauge, so this equals
  /// reduce_sram_peak there; the sharded engine reports its hottest domain.
  Bytes reduce_sram_peak_max_domain = 0;
};

/// One simulation engine: a single-queue packet Network, a single-queue
/// FlowNetwork, or a pod-sharded ShardedNetwork that owns its own queues.
/// The drivers see only the control-plane queue (submissions, fault timers,
/// recovery closures), the DataPlane the runner and injector talk to, the
/// run loop, and the counters. Built by make_engine.
class Engine {
 public:
  [[nodiscard]] EventQueue& control() noexcept {
    return sharded_ ? sharded_->control() : queue_;
  }
  [[nodiscard]] DataPlane& data() noexcept { return *data_; }
  void run() { sharded_ ? sharded_->run() : queue_.run(); }
  void run_until(SimTime t) {
    sharded_ ? sharded_->run_until(t) : queue_.run_until(t);
  }
  [[nodiscard]] bool empty() const {
    return sharded_ ? sharded_->empty() : queue_.empty();
  }
  [[nodiscard]] SimTime now() const {
    return sharded_ ? sharded_->now() : queue_.now();
  }
  [[nodiscard]] EngineStats stats() const;
  /// Capacity hint for the queue-depth series; a no-op without telemetry.
  void reserve_series(std::size_t expected);
  /// Telemetry for audit/summary once the run has quiesced; null = disabled.
  [[nodiscard]] const Telemetry* finished_telemetry() const;

 private:
  friend std::unique_ptr<Engine> make_engine(const Topology&, SimConfig,
                                             Fidelity, int, bool);
  Engine() = default;

  EventQueue queue_;  ///< drives the packet and flow networks
  std::optional<Network> packet_;
  std::optional<FlowNetwork> flow_;
  std::optional<ShardedNetwork> sharded_;
  DataPlane* data_ = nullptr;
};

/// Builds the engine a run asked for: the flow engine for Fidelity::Flow,
/// the sharded engine for `shards` > 0 worker threads, else the solo packet
/// engine. `byte_audit` turns telemetry on (the audit needs its accounting).
/// Throws std::invalid_argument for Fidelity::Flow with `shards` > 0: the
/// flow engine runs on one queue and has no sharded form.
[[nodiscard]] std::unique_ptr<Engine> make_engine(const Topology& topo,
                                                  SimConfig sim,
                                                  Fidelity fidelity,
                                                  int shards, bool byte_audit);

/// Submits one collective of `kind` from `source` to `dests`. AllGather and
/// AllReduce list the destinations, then the source, as members; `bytes` is
/// the broadcast message, the AllGather total, or the AllReduce buffer.
void submit_collective(CollectiveRunner& runner, CollectiveKind kind,
                       Scheme scheme, std::uint64_t id, std::uint64_t job,
                       NodeId source, std::vector<NodeId> dests, Bytes bytes);

/// How a run ends and what is checked once it has.
struct RunChecks {
  double deadline_seconds = 0.0;  ///< 0 = run to drain
  bool watchdog = false;
  bool byte_audit = false;
  /// Audit failure contexts: a drained run with every collective finished
  /// gets the full conservation check, any other only the over-delivery one.
  const char* drain_context = "at drain";
  const char* partial_context = "partial run, over-delivery check only";
};

/// Runs the engine to drain (or to the deadline), enforces the watchdog,
/// collects CCTs and the unfinished count from the runner's records, runs
/// the byte audit, and fills the telemetry summary, link bytes, engine
/// counters, plan-cache and topology-delta fields of the result.
[[nodiscard]] ScenarioResult run_and_harvest(Engine& engine,
                                             const CollectiveRunner& runner,
                                             const Topology& topo,
                                             const RunChecks& checks);

}  // namespace peel::detail
