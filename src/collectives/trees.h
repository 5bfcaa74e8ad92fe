// Tree/program construction for each broadcast scheme.
//
// Every scheme ultimately becomes one or more StreamSpecs (link lists +
// member receivers).  This header builds them:
//   * optimal_tree          — bandwidth-optimal in-network multicast (§2.1)
//   * peel_static_trees     — one tree per PEEL prefix packet (§3.2); the
//                             sender emits one copy per tree, over-covered
//                             racks/hosts receive and discard
//   * peel_asymmetric_trees — layer-peeling greedy tree split into per-spine
//                             prefix packets for fabrics with failures (§2.3)
//   * orca_program          — optimal tree truncated at one designated host
//                             per rack plus host-relay unicast flows ([12])
#pragma once

#include <span>
#include <vector>

#include "src/collectives/fabric.h"
#include "src/prefix/plan.h"
#include "src/routing/router.h"
#include "src/sim/network.h"
#include "src/steiner/multicast_tree.h"

namespace peel {

/// Converts a multicast tree into a StreamSpec: the tree's links and a
/// receiver list, which defaults to the tree's destinations.
[[nodiscard]] StreamSpec spec_from_tree(const MulticastTree& tree,
                                        std::span<const NodeId> receivers = {});

/// Converts a unicast route into a linear StreamSpec whose only receiver is
/// the route's final node.
[[nodiscard]] StreamSpec spec_from_route(const Route& route);

/// Bandwidth-optimal broadcast tree on the (failure-free) fabric.
[[nodiscard]] MulticastTree optimal_tree(const Fabric& fabric, NodeId source,
                                         std::span<const NodeId> destinations,
                                         std::uint64_t selector);

/// A PEEL packet class realized as a physical tree: the up-path to the
/// replication tier plus the prefix-rule fan-out (member and over-covered
/// racks alike).
struct PeelStream {
  MulticastTree tree;
  std::vector<NodeId> receivers;  ///< member endpoints served by this packet
};

/// Static-prefix PEEL on a symmetric fabric: one stream per plan packet, plus
/// (if needed) a local stream for destinations on the source host.
[[nodiscard]] std::vector<PeelStream> peel_static_trees(const Fabric& fabric,
                                                        const PeelPlan& plan,
                                                        std::uint64_t selector);

/// Fuses PEEL prefix parts into one in-network AllReduce StreamSpec. The
/// parts' member-serving links (over-covered branches pruned) merge into a
/// single tree rooted at `source`, which is then rerooted at the pivot — the
/// first fan-out node above the source, where the parts' trunks diverge
/// toward the replication tier. The spec's links are that rerooted tree
/// (the prefix multicast down to every member, source included via the
/// reversed trunk); the data plane runs contributions up the exact mirror of
/// the same links, combining at every interior switch, and the pivot's fully
/// combined bytes re-enter the forward fan-out as an ordinary multicast. So
/// the aggregation fan-in set at each switch is link-for-link the reverse of
/// its member-serving fan-out set, and each fabric link is crossed once up
/// and once down. Where two parts reach the same switch over different
/// cores, the later part grafts onto the earlier path (one buffer copy needs
/// one tree, not the per-part link sets verbatim). Every member is both a
/// contributor and a receiver. Throws std::invalid_argument when a part
/// receiver is missing from its tree or a member sits on an interior node
/// (in-network combining at an injecting endpoint is not modeled).
[[nodiscard]] StreamSpec innet_fused_spec(const Topology& topo,
                                          std::span<const PeelStream> parts,
                                          NodeId source,
                                          std::span<const NodeId> members);

/// PEEL on an asymmetric leaf–spine: the §2.3 greedy tree, split into one
/// stream per (spine, prefix block) — the sender emits one packet copy per
/// prefix, exactly as in the symmetric case.
[[nodiscard]] std::vector<PeelStream> peel_asymmetric_trees(
    const LeafSpine& ls, NodeId source, std::span<const NodeId> destinations);

/// Orca's program: in-network tree down to one designated member host per
/// rack, then host-assisted unicast relays to the rack's other member hosts.
struct OrcaProgram {
  MulticastTree trunk;
  std::vector<NodeId> trunk_receivers;  ///< endpoints on designated hosts
  struct Relay {
    NodeId designated_host;             ///< relay source
    Route route;                        ///< designated -> peer host
    std::vector<NodeId> endpoints;      ///< members delivered by this relay
  };
  std::vector<Relay> relays;
};

[[nodiscard]] OrcaProgram orca_program(const Fabric& fabric, Router& router,
                                       NodeId source,
                                       std::span<const NodeId> destinations,
                                       std::uint64_t selector);

/// Member endpoints grouped by host (GPU endpoints resolve to their host;
/// host endpoints map to themselves).
[[nodiscard]] std::vector<std::pair<NodeId, std::vector<NodeId>>> members_by_host(
    const Topology& topo, std::span<const NodeId> destinations);

}  // namespace peel
