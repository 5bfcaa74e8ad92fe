// The assembled driver: builds run_scenario's engine from the public types
// (EventQueue + Network, or ShardedNetwork; CollectiveRunner; FaultInjector;
// TopologyEventBus) in run_scenario's construction and scheduling order, with
// the benchmark's span wrappers spliced in at every layer boundary. With a
// null tracer it is an untraced replica whose signature must equal the
// public driver's.
#pragma once

#include <cstdint>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// Engine-level counts the public driver does not return.
struct EngineCounts {
  std::uint64_t sink_events[kLayerCount] = {};  ///< per SimEventKind layer
  std::uint64_t windows_inline = 0;
  std::uint64_t windows_parallel = 0;
  std::uint64_t deltas = 0;
  std::uint64_t recover_passes = 0;
  bool sharded = false;
};

[[nodiscard]] PassOutcome run_assembled(const peel::Fabric& fabric,
                                        const peel::ScenarioConfig& config,
                                        const ScenarioInputs& inputs,
                                        Tracer* tracer, EngineCounts& counts);

}  // namespace perfbench
