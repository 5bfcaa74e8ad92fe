// Layer-peeling greedy Steiner heuristic for asymmetric Clos fabrics (§2.3).
//
// Nodes are bucketed into hop layers by BFS distance from the source over
// live links.  Peeling from the outermost layer inward, whenever some
// tree-member at layer i+1 has no tree-member neighbor at layer i, the
// algorithm greedily adds the layer-i switch that covers the most such
// uncovered members — the classical set-cover heuristic constrained to a
// layered, loop-free shape.  The result is an O(min(F, |D|))-approximation
// (Theorem 2.5), where F is the farthest destination's hop distance.
#pragma once

#include <span>

#include "src/steiner/multicast_tree.h"
#include "src/topology/topology.h"

namespace peel {

/// Builds the layer-peeling tree from `source` to `destinations` over live
/// links. Throws std::runtime_error if some destination is unreachable.
/// Deterministic: ties in the greedy choice break toward the lowest node id.
[[nodiscard]] MulticastTree layer_peel_tree(const Topology& topo, NodeId source,
                                            std::span<const NodeId> destinations);

/// The paper's F: hop distance from the source to its farthest destination.
[[nodiscard]] int farthest_destination_distance(const Topology& topo, NodeId source,
                                                std::span<const NodeId> destinations);

}  // namespace peel
