// Link-traversal accounting for Figure 1: how many times each physical link
// carries the message under unicast Ring / Binary-Tree schedules versus an
// in-network multicast tree.  Logical topologies schedule unicasts; they do
// not reduce total bytes — this module quantifies exactly that.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/routing/router.h"
#include "src/steiner/multicast_tree.h"
#include "src/topology/topology.h"

namespace peel {

/// Per-link traversal counts (indexed by LinkId).
struct LinkLoad {
  std::vector<int> per_link;

  [[nodiscard]] int total() const;
  /// Traversals on links between switch tiers Core<->Tor / Core<->Agg /
  /// Agg<->Tor excluding host access (the congested spine of the fabric).
  [[nodiscard]] int core_total(const Topology& topo) const;
  [[nodiscard]] int max_on_any_link() const;
};

/// Unicast (src, dst) pairs of a locality-ordered ring rooted at `source`.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> ring_pairs(
    NodeId source, std::span<const NodeId> destinations);

/// Unicast pairs of a binary tree rooted at `source` (rank r -> 2r+1, 2r+2).
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> binary_tree_pairs(
    NodeId source, std::span<const NodeId> destinations);

/// Routes every pair with ECMP and accumulates per-link traversals.
[[nodiscard]] LinkLoad unicast_load(const Topology& topo, Router& router,
                                    std::span<const std::pair<NodeId, NodeId>> pairs,
                                    std::uint64_t salt = 0);

/// A multicast tree traverses each tree link exactly once.
[[nodiscard]] LinkLoad tree_load(const Topology& topo, const MulticastTree& tree);

}  // namespace peel
