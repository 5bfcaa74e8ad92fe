// Shortest-path routing with ECMP over live links.
//
// Clos fabrics are routed up–down; on a unit-cost graph that is exactly
// shortest-path routing, so the Router computes BFS distance fields and walks
// them greedily.  Among equal-cost next hops it picks one by hashing the flow
// id with the hop index — the same deterministic spreading ECMP provides in
// real fabrics.  Distance fields are cached per destination and flushed when
// a TopologyDelta (src/routing/topology_events.h) reports a failure-set
// change.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/routing/topology_events.h"
#include "src/topology/topology.h"

namespace peel {

/// A concrete unicast route: links[i] goes nodes[i] -> nodes[i+1].
struct Route {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  [[nodiscard]] bool empty() const noexcept { return links.empty(); }
  [[nodiscard]] std::size_t hops() const noexcept { return links.size(); }
};

/// Mixes flow identifiers into an ECMP hash.
[[nodiscard]] std::uint64_t ecmp_hash(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t salt = 0) noexcept;

class Router : public TopologyObserver {
 public:
  explicit Router(const Topology& topo) : topo_(&topo) {}

  /// Hop distances from every node to `dst` over live links; kUnreached for
  /// disconnected nodes (live_bfs). Cached until the next delta (or
  /// flush_routes()).
  [[nodiscard]] const std::vector<std::int32_t>& distances_to(NodeId dst);

  /// Hop distances from `src` to every node (used for layer peeling).
  [[nodiscard]] std::vector<std::int32_t> distances_from(NodeId src) const;

  /// ECMP shortest path src -> dst; empty Route if unreachable.
  [[nodiscard]] Route path(NodeId src, NodeId dst, std::uint64_t flow_hash);

  /// Consumes one topology-change event: drops the cached distance fields
  /// (a link transition anywhere can change distances everywhere, and BFS
  /// fields are cheap to rebuild lazily) and records the delta sequence.
  /// Surgical invalidation of *plans* lives in TreePlanCache
  /// (src/collectives/plan_cache.h), which reacts to the same deltas.
  void on_topology_delta(const TopologyDelta& delta) override {
    flush_routes();
    delta_seq_ = delta.seq > delta_seq_ ? delta.seq : delta_seq_ + 1;
  }

  /// Drops all cached distance fields without consuming a delta — for call
  /// sites that mutate the Topology directly and hold no event bus.
  void flush_routes() { dist_cache_.clear(); }

  /// Sequence number of the last delta consumed (monotone; hand-built
  /// deltas with seq 0 still advance it by one).
  [[nodiscard]] std::uint64_t delta_seq() const noexcept { return delta_seq_; }

 private:
  const Topology* topo_;
  std::unordered_map<NodeId, std::vector<std::int32_t>> dist_cache_;
  std::uint64_t delta_seq_ = 0;
};

}  // namespace peel
