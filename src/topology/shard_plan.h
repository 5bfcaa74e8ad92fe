// Pod-ownership map for the sharded simulation engine (src/sim/sharded.h).
//
// The shared-memory analogue of SWARM-SIM's MPI rank partitioning: the fabric
// is cut along its pod boundaries into execution *domains*. Every pod-scoped
// node (ToR, aggregation switch, and the hosts/GPUs below them) belongs to
// its pod's domain; everything outside a pod (fat-tree cores, leaf–spine
// spines) is pooled into one extra core domain. A directed link is owned by
// the domain of its *source* node — the owner runs the link's serializer
// (egress queue, busy/PFC state), so every enqueue and finish_tx is a
// domain-local operation and only the propagation flight of a segment ever
// crosses a domain boundary.
//
// The decomposition is a pure function of the Topology and does NOT depend on
// how many worker threads execute it. That is the determinism cornerstone:
// the `shards` knob scales threads over a fixed domain layout, so replay is
// byte-identical at any shard count by construction.
//
// `lookahead` is the conservative PDES bound: the minimum propagation latency
// over all cross-domain links. No event executed in window [W, W + lookahead)
// can schedule work in another domain earlier than W + lookahead, so domains
// advance a full window between barriers without ever seeing a message from
// their past.
//
// Dense numbering: a domain's Network keeps state only for what it owns, in
// tables indexed by *slot*. Each node and each link has one slot in its
// owning domain, numbered in ascending global id. A crossing link also has a
// receive-side slot in its destination's domain (its fail epoch, the mirror
// of its PFC pause bit, and the bytes it holds in the destination's buffer),
// numbered after that domain's own links. The maps are fabric-sized and
// shared by every domain. A one-domain plan (single_domain_plan, the solo
// engine's) numbers every slot with its global id.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/topology/topology.h"

namespace peel {

struct ShardPlan {
  /// Execution domains: one per pod present in the topology, plus one core
  /// domain (index `domains - 1`) iff any node has pod -1. Always >= 1.
  int domains = 1;
  /// node -> owning domain.
  std::vector<std::int32_t> node_domain;
  /// link -> owning domain (the domain of the link's source node).
  std::vector<std::int32_t> link_domain;
  /// node -> its slot in its owning domain.
  std::vector<std::int32_t> node_slot;
  /// link -> its slot in its owning (source) domain.
  std::vector<std::int32_t> link_slot;
  /// link -> the slot of its receive side in its destination's domain:
  /// link_slot for a link inside one domain, a mirror slot for a crossing
  /// link.
  std::vector<std::int32_t> rx_slot;
  /// domain -> nodes it owns (its node slots are 0 .. count - 1).
  std::vector<std::int32_t> domain_nodes;
  /// domain -> link slots: the links it owns, then one mirror per crossing
  /// link that enters it.
  std::vector<std::int32_t> domain_link_slots;
  /// Conservative lookahead: min propagation over cross-domain links, in ns.
  /// 0 when no link crosses a domain boundary (single-domain fabrics).
  SimTime lookahead = 0;
  /// Directed links whose src and dst domains differ.
  std::size_t cross_links = 0;

  [[nodiscard]] std::int32_t domain_of_node(NodeId n) const {
    return node_domain[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::int32_t domain_of_link(LinkId l) const {
    return link_domain[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] bool crosses(LinkId l, const Topology& topo) const {
    return domain_of_link(l) !=
           domain_of_node(topo.link(l).dst);
  }
};

/// Builds the pod-ownership map for `topo`. Pod indices may be sparse; each
/// distinct pod value maps to one domain in ascending pod order.
[[nodiscard]] ShardPlan build_shard_plan(const Topology& topo);

/// The whole fabric as one domain: every slot is its global id.
[[nodiscard]] ShardPlan single_domain_plan(const Topology& topo);

}  // namespace peel
