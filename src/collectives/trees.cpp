#include "src/collectives/trees.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/prefix/cover.h"
#include "src/steiner/layer_peel.h"
#include "src/steiner/symmetric.h"

namespace peel {
namespace {

/// NVLink fan-out from a host to specific member endpoints (no-op when the
/// endpoint is the host itself).
void attach_endpoints(const Topology& topo, MulticastTree& tree, NodeId host,
                      std::span<const NodeId> endpoints) {
  for (NodeId e : endpoints) {
    if (e == host) continue;
    tree.add_link(topo, topo.find_link(host, e));
  }
}

NodeId resolve_host(const Topology& topo, NodeId endpoint) {
  return topo.kind(endpoint) == NodeKind::Gpu ? topo.host_of(endpoint) : endpoint;
}

}  // namespace

std::vector<std::pair<NodeId, std::vector<NodeId>>> members_by_host(
    const Topology& topo, std::span<const NodeId> destinations) {
  std::map<NodeId, std::vector<NodeId>> hosts;
  for (NodeId d : destinations) hosts[resolve_host(topo, d)].push_back(d);
  return {hosts.begin(), hosts.end()};
}

StreamSpec spec_from_tree(const MulticastTree& tree,
                          std::span<const NodeId> receivers) {
  StreamSpec spec;
  spec.source = tree.source();
  spec.links = tree.links();
  if (receivers.empty()) {
    spec.receivers = tree.destinations();
  } else {
    spec.receivers.assign(receivers.begin(), receivers.end());
  }
  return spec;
}

StreamSpec spec_from_route(const Route& route) {
  if (route.links.empty()) throw std::invalid_argument("empty route");
  StreamSpec spec;
  spec.source = route.nodes.front();
  spec.links = route.links;
  spec.receivers = {route.nodes.back()};
  return spec;
}

StreamSpec innet_fused_spec(const Topology& topo,
                            std::span<const PeelStream> parts, NodeId source,
                            std::span<const NodeId> members) {
  if (members.empty()) {
    throw std::invalid_argument("fused reduce needs at least one member");
  }
  // Union the member-serving links of every part into one in-link map.  Each
  // receiver's up-walk stops as soon as it meets a node another walk already
  // connected, so over-covered branches (receivers of *other* parts) never
  // enter the map, and where two parts reach the same switch over different
  // cores the later one grafts onto the earlier path — the fused stream
  // carries a single copy of the buffer, so it needs one tree, not the
  // per-part link sets verbatim.
  std::unordered_map<NodeId, LinkId> in_link;
  for (const PeelStream& part : parts) {
    for (NodeId r : part.receivers) {
      NodeId n = r;
      while (n != source) {
        const LinkId in = part.tree.in_link_of(n);
        if (in == kInvalidLink) {
          throw std::invalid_argument("part receiver is not in its tree");
        }
        // Stop at the first already-connected node: its recorded chain leads
        // to the source through links laid down by earlier walks, which are
        // disjoint from this walk's fresh fragment — so no cycle can form.
        if (!in_link.try_emplace(n, in).second) break;
        n = topo.link(in).src;
      }
    }
  }
  std::unordered_map<NodeId, std::vector<LinkId>> out;
  for (const auto& [dst, l] : in_link) out[topo.link(l).src].push_back(l);
  // Reroot at the pivot: walk up from the source while the tree is a pure
  // chain; the first fan-out node is where the parts' trunks diverge toward
  // the replication tier.  The trunk links below it flip direction so the
  // pivot's multicast reaches the source like any other member.
  NodeId pivot = source;
  std::vector<LinkId> trunk;
  while (true) {
    auto it = out.find(pivot);
    if (it == out.end() || it->second.size() != 1) break;
    trunk.push_back(it->second.front());
    pivot = topo.link(it->second.front()).dst;
  }
  if (!out.contains(pivot)) {
    // Pure chain (the group collapses onto one down-path): combine at the
    // source's host — the first hop up — rather than at a member endpoint.
    if (trunk.empty()) {
      throw std::invalid_argument("fused reduce has no fabric links");
    }
    pivot = topo.link(trunk.front()).dst;
    trunk.resize(1);
  }
  for (LinkId l : trunk) {
    const Link& lk = topo.link(l);
    auto it = out.find(lk.src);
    auto& links = it->second;
    links.erase(std::find(links.begin(), links.end(), l));
    if (links.empty()) out.erase(it);
    out[lk.dst].push_back(topo.reverse_of(l));
  }
  for (NodeId m : members) {
    if (out.contains(m)) {
      throw std::invalid_argument(
          "fused reduce member lies on an interior node; in-network combining "
          "at an injecting endpoint is not modeled");
    }
  }
  StreamSpec spec;
  spec.source = pivot;
  for (const auto& [n, links] : out) {
    spec.links.insert(spec.links.end(), links.begin(), links.end());
  }
  // Sorted, so each node replicates onto its out-links in id order.
  std::sort(spec.links.begin(), spec.links.end());
  spec.receivers.assign(members.begin(), members.end());
  spec.contributors.assign(members.begin(), members.end());
  return spec;
}

MulticastTree optimal_tree(const Fabric& fabric, NodeId source,
                           std::span<const NodeId> destinations,
                           std::uint64_t selector) {
  if (fabric.fat_tree) {
    return optimal_fat_tree_tree(*fabric.fat_tree, source, destinations, selector);
  }
  return optimal_leaf_spine_tree(*fabric.leaf_spine, source, destinations, selector);
}

namespace {

/// Shared state while expanding one PEEL packet rule into a physical tree.
struct PeelExpander {
  const Fabric& fabric;
  const PeelPlan& plan;
  const Topology& topo;
  NodeId src_host;
  NodeId src_tor;

  /// Host node under `tor` at within-rack index `idx`.
  [[nodiscard]] NodeId host_at(NodeId tor, int idx) const {
    const int per_rack = fabric.hosts_per_rack();
    const auto& hosts = fabric.hosts();
    int rack_position = 0;
    if (fabric.fat_tree) {
      const auto& n = topo.node(tor);
      rack_position = static_cast<int>(n.pod) * fabric.fat_tree->tors_per_pod() +
                      static_cast<int>(n.tier_index);
    } else {
      rack_position = static_cast<int>(topo.node(tor).tier_index);
    }
    const std::size_t i =
        static_cast<std::size_t>(rack_position * per_rack + idx);
    return i < hosts.size() ? hosts[i] : kInvalidNode;
  }

  /// Attaches the rule's covered hosts under `tor`; member hosts also fan out
  /// to their member endpoints. `receivers` collects the members served.
  void attach_rack(MulticastTree& tree, const PeelPacketRule& rule, NodeId tor,
                   bool rack_has_members, std::vector<NodeId>& receivers) const {
    for (int idx : rule.covered_host_idx) {
      const NodeId host = host_at(tor, idx);
      if (host == kInvalidNode || host == src_host) continue;
      tree.add_link(topo, topo.find_link(tor, host));
      if (!rack_has_members) continue;  // over-covered rack: all copies discarded
      const auto it = plan.host_members.find(host);
      if (it == plan.host_members.end()) continue;  // over-covered host
      attach_endpoints(topo, tree, host, it->second);
      receivers.insert(receivers.end(), it->second.begin(), it->second.end());
    }
  }
};

}  // namespace

std::vector<PeelStream> peel_static_trees(const Fabric& fabric, const PeelPlan& plan,
                                          std::uint64_t selector) {
  const Topology& topo = fabric.topo();
  const NodeId source = plan.source;
  const NodeId src_host = resolve_host(topo, source);
  const NodeId src_tor = topo.tor_of(src_host);
  PeelExpander ex{fabric, plan, topo, src_host, src_tor};

  std::vector<PeelStream> streams;

  for (std::size_t r = 0; r < plan.packets.size(); ++r) {
    const PeelPacketRule& rule = plan.packets[r];
    MulticastTree tree(source, {});
    std::vector<NodeId> receivers;

    // Up-path: endpoint -> host -> ToR.
    if (source != src_host) tree.add_link(topo, topo.find_link(source, src_host));
    tree.add_link(topo, topo.find_link(src_host, src_tor));

    // If the rule covers nothing beyond the source's own rack, the ToR
    // serves it directly — the packet never climbs to the replication tier.
    const bool beyond_src_rack =
        std::any_of(rule.member_tors.begin(), rule.member_tors.end(),
                    [&](NodeId t) { return t != src_tor; }) ||
        std::any_of(rule.redundant_tors.begin(), rule.redundant_tors.end(),
                    [&](NodeId t) { return t != src_tor; });
    if (!beyond_src_rack) {
      ex.attach_rack(tree, rule, src_tor, /*rack_has_members=*/true, receivers);
      streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
      continue;
    }

    // Rack fan-out under a given replication switch: member racks deliver,
    // over-covered racks discard.  The source's own rack is served from its
    // ToR, already on the up-path.
    auto attach_tor = [&](NodeId repl, NodeId tor, bool has_members) {
      if (tor != src_tor) {
        tree.add_link(topo, topo.find_link(repl, tor));
        ex.attach_rack(tree, rule, tor, has_members, receivers);
      } else {
        ex.attach_rack(tree, rule, src_tor, has_members, receivers);
      }
    };
    // Covered ToRs grouped by pod.
    std::map<int, std::vector<std::pair<NodeId, bool>>> tors_by_pod;
    for (NodeId tor : rule.member_tors) {
      tors_by_pod[static_cast<int>(topo.node(tor).pod)].emplace_back(tor, true);
    }
    for (NodeId tor : rule.redundant_tors) {
      tors_by_pod[static_cast<int>(topo.node(tor).pod)].emplace_back(tor, false);
    }

    // The salt picks the replication switches. If a switch link that pick
    // needs is down, the next candidate in salt order whose links are all up
    // takes over; with every link up the salted pick stands.
    const std::uint64_t salt = selector * 1315423911ULL + r;
    auto live = [&](NodeId u, NodeId v) {
      return topo.find_link(u, v) != kInvalidLink;
    };
    auto tors_live = [&](NodeId repl, const auto& tors) {
      return std::all_of(tors.begin(), tors.end(), [&](const auto& t) {
        return t.first == src_tor || live(repl, t.first);
      });
    };
    if (fabric.fat_tree) {
      const FatTree& ft = *fabric.fat_tree;
      const std::uint64_t half = static_cast<std::uint64_t>(ft.config.k / 2);
      const int src_pod = static_cast<int>(topo.node(src_tor).pod);
      const bool remote_pods =
          std::any_of(tors_by_pod.begin(), tors_by_pod.end(),
                      [&](const auto& kv) { return kv.first != src_pod; });
      // Candidate c is aggregation index c % half under core column c / half.
      auto candidate_live = [&](int a, int j) {
        const NodeId src_agg = ft.agg_at(src_pod, a);
        if (!live(src_tor, src_agg)) return false;
        const NodeId core = ft.core_at(a, j);
        if (remote_pods && !live(src_agg, core)) return false;
        for (const auto& [pod, tors] : tors_by_pod) {
          if (pod == src_pod) {
            if (!tors_live(src_agg, tors)) return false;
            continue;
          }
          const NodeId agg = ft.agg_at(pod, a);
          if (!live(core, agg) || !tors_live(agg, tors)) return false;
        }
        return true;
      };
      int a = -1;
      int j = -1;
      for (std::uint64_t t = 0; t < half * half && a < 0; ++t) {
        const std::uint64_t c = (salt % (half * half) + t) % (half * half);
        if (candidate_live(static_cast<int>(c % half),
                           static_cast<int>(c / half))) {
          a = static_cast<int>(c % half);
          j = static_cast<int>(c / half);
        }
      }
      if (a < 0) {
        throw std::runtime_error(
            "peel_static_trees: no live aggregation/core pair reaches every "
            "covered rack");
      }
      const NodeId src_agg = ft.agg_at(src_pod, a);
      tree.add_link(topo, topo.find_link(src_tor, src_agg));
      // The source pod's aggregation switch expands the ToR prefix locally...
      if (auto it = tors_by_pod.find(src_pod); it != tors_by_pod.end()) {
        for (const auto& [tor, has_members] : it->second) {
          attach_tor(src_agg, tor, has_members);
        }
      }
      // ...and the core expands the pod prefix toward every other pod.
      if (remote_pods) {
        const NodeId core = ft.core_at(a, j);
        tree.add_link(topo, topo.find_link(src_agg, core));
        for (const auto& [pod, tors] : tors_by_pod) {
          if (pod == src_pod) continue;
          const NodeId agg = ft.agg_at(pod, a);
          tree.add_link(topo, topo.find_link(core, agg));
          for (const auto& [tor, has_members] : tors) {
            attach_tor(agg, tor, has_members);
          }
        }
      }
    } else {
      const LeafSpine& ls = *fabric.leaf_spine;
      NodeId spine = kInvalidNode;
      for (std::size_t t = 0; t < ls.spines.size() && spine == kInvalidNode;
           ++t) {
        const NodeId s =
            ls.spines[(salt % ls.spines.size() + t) % ls.spines.size()];
        const bool ok =
            live(src_tor, s) &&
            std::all_of(tors_by_pod.begin(), tors_by_pod.end(),
                        [&](const auto& kv) { return tors_live(s, kv.second); });
        if (ok) spine = s;
      }
      if (spine == kInvalidNode) {
        throw std::runtime_error(
            "peel_static_trees: no live spine reaches every covered rack");
      }
      tree.add_link(topo, topo.find_link(src_tor, spine));
      for (const auto& [pod, tors] : tors_by_pod) {
        for (const auto& [tor, has_members] : tors) {
          attach_tor(spine, tor, has_members);
        }
      }
    }

    streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
  }

  // Destinations on the source host travel over NVLink only.
  if (!plan.source_local.empty()) {
    if (!streams.empty() && source != src_host) {
      for (NodeId e : plan.source_local) {
        streams.front().tree.add_link(topo, topo.find_link(src_host, e));
        streams.front().receivers.push_back(e);
      }
    } else {
      MulticastTree local(source, plan.source_local);
      if (source != src_host) {
        local.add_link(topo, topo.find_link(source, src_host));
      }
      for (NodeId e : plan.source_local) {
        local.add_link(topo, topo.find_link(src_host, e));
      }
      streams.push_back(PeelStream{std::move(local), plan.source_local});
    }
  }
  return streams;
}

std::vector<PeelStream> peel_asymmetric_trees(const LeafSpine& ls, NodeId source,
                                              std::span<const NodeId> destinations) {
  const Topology& topo = ls.topo;
  const MulticastTree greedy = layer_peel_tree(topo, source, destinations);

  // Destination membership for receiver lists.
  std::unordered_map<NodeId, char> is_dest;
  for (NodeId d : destinations) is_dest[d] = 1;

  // Path from source to every tree node (via in-links).
  auto path_to = [&](NodeId n) {
    std::vector<LinkId> links;
    NodeId cur = n;
    while (cur != source) {
      const LinkId in = greedy.in_link_of(cur);
      links.push_back(in);
      cur = topo.link(in).src;
    }
    std::reverse(links.begin(), links.end());
    return links;
  };

  // Collect a subtree's links and member receivers starting at `root`
  // (excluding root's in-link).
  auto collect_subtree = [&](NodeId root, std::vector<LinkId>& links,
                             std::vector<NodeId>& receivers) {
    std::vector<NodeId> stack{root};
    if (is_dest.contains(root)) receivers.push_back(root);
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      for (LinkId l : greedy.out_links_of(cur)) {
        links.push_back(l);
        const NodeId child = topo.link(l).dst;
        if (is_dest.contains(child)) receivers.push_back(child);
        stack.push_back(child);
      }
    }
  };

  // Find the first spine (Core) on every root-to-node path: DFS from source,
  // splitting when a Core is entered with no Core above it.
  std::vector<NodeId> split_spines;
  std::vector<LinkId> local_links;   // links never passing through a spine
  std::vector<NodeId> local_receivers;
  {
    struct Item {
      NodeId node;
      bool under_spine;
    };
    std::vector<Item> stack{{source, false}};
    if (is_dest.contains(source)) local_receivers.push_back(source);
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      for (LinkId l : greedy.out_links_of(it.node)) {
        const NodeId child = topo.link(l).dst;
        const bool child_is_spine = topo.kind(child) == NodeKind::Core;
        if (!it.under_spine && child_is_spine) {
          split_spines.push_back(child);
          continue;  // handled per spine below
        }
        if (!it.under_spine) {
          local_links.push_back(l);
          if (is_dest.contains(child)) local_receivers.push_back(child);
        }
        stack.push_back(Item{child, it.under_spine || child_is_spine});
      }
    }
  }

  const int m = id_bits(static_cast<int>(ls.leaves.size()));
  std::vector<PeelStream> streams;

  auto build_stream = [&](const std::vector<LinkId>& links,
                          std::vector<NodeId> receivers) {
    MulticastTree tree(source, receivers);
    // Links were gathered in mixed order; insert parents-first by repeatedly
    // sweeping (the sets are tiny compared to simulation work).
    std::vector<LinkId> remaining = links;
    while (!remaining.empty()) {
      const std::size_t before = remaining.size();
      std::erase_if(remaining, [&](LinkId l) {
        if (tree.contains(topo.link(l).src) && !tree.contains(topo.link(l).dst)) {
          tree.add_link(topo, l);
          return true;
        }
        return false;
      });
      if (remaining.size() == before) {
        throw std::logic_error("peel_asymmetric_trees: disconnected link set");
      }
    }
    streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
  };

  // Only emit the local stream when it actually serves members; the up-path
  // links it would carry are re-added by each spine stream anyway.
  if (!local_receivers.empty()) {
    build_stream(local_links, local_receivers);
  }

  const NodeId src_leaf = topo.tor_of(
      topo.kind(source) == NodeKind::Gpu
          ? topo.host_of(source)
          : (topo.kind(source) == NodeKind::Host ? source : kInvalidNode));

  for (NodeId spine : split_spines) {
    const std::vector<LinkId> up = path_to(spine);
    // One compact prefix block per spine: the smallest power-of-two block
    // covering this spine's member leaves. Extra packets at the source are
    // far costlier than the over-covered leaves' discarded copies, so the
    // block may sweep up non-member leaves (they receive one copy on their
    // spine->leaf link and drop it).
    std::vector<int> leaf_ids;
    std::map<int, NodeId> leaf_by_id;
    std::vector<LinkId> nonleaf_links;  // spine children that are not leaves
    for (LinkId l : greedy.out_links_of(spine)) {
      const NodeId child = topo.link(l).dst;
      if (topo.kind(child) == NodeKind::Tor) {
        const int id = static_cast<int>(topo.node(child).tier_index);
        leaf_ids.push_back(id);
        leaf_by_id[id] = child;
      } else {
        nonleaf_links.push_back(l);
      }
    }
    const auto block = bounded_cover(make_member_set(leaf_ids, m), m, 1);
    std::vector<LinkId> links = up;
    std::vector<NodeId> receivers;
    for (const auto& [id, leaf] : leaf_by_id) {
      links.push_back(greedy.in_link_of(leaf));
      collect_subtree(leaf, links, receivers);
    }
    // Over-covered leaves: charge the spine->leaf copy they will discard.
    // (Their ToR-to-host fan-out is dropped at the ToR's host-prefix rule.)
    for (const Prefix& p : block.prefixes) {
      const std::uint32_t start = p.block_start(m);
      for (std::uint32_t id = start; id < start + p.block_size(m); ++id) {
        if (id >= ls.leaves.size() || leaf_by_id.contains(static_cast<int>(id))) {
          continue;
        }
        const NodeId leaf = ls.leaves[id];
        if (leaf == src_leaf) continue;  // already on the up-path
        const LinkId l = topo.find_link(spine, leaf);
        if (l != kInvalidLink) links.push_back(l);  // failed port: no copy
      }
    }
    for (LinkId l : nonleaf_links) {
      links.push_back(l);
      collect_subtree(topo.link(l).dst, links, receivers);
    }
    build_stream(links, std::move(receivers));
  }
  return streams;
}

OrcaProgram orca_program(const Fabric& fabric, Router& router, NodeId source,
                         std::span<const NodeId> destinations,
                         std::uint64_t selector) {
  const Topology& topo = fabric.topo();
  const NodeId src_host = resolve_host(topo, source);

  // Designated host = lowest-id member host per rack.
  std::map<NodeId, std::vector<std::pair<NodeId, std::vector<NodeId>>>> racks;
  for (auto& [host, endpoints] : members_by_host(topo, destinations)) {
    racks[topo.tor_of(host)].emplace_back(host, std::move(endpoints));
  }

  OrcaProgram program;
  std::vector<NodeId> trunk_dests;
  for (auto& [tor, hosts] : racks) {
    // Prefer the source host as designated host for its own rack.
    std::size_t designated = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i].first == src_host) designated = i;
    }
    const NodeId dhost = hosts[designated].first;
    for (NodeId e : hosts[designated].second) {
      trunk_dests.push_back(e);
      program.trunk_receivers.push_back(e);
    }
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (i == designated) continue;
      OrcaProgram::Relay relay;
      relay.designated_host = dhost;
      relay.route = router.path(dhost, hosts[i].first,
                                ecmp_hash(static_cast<std::uint64_t>(dhost),
                                          static_cast<std::uint64_t>(hosts[i].first),
                                          selector));
      relay.endpoints = hosts[i].second;
      program.relays.push_back(std::move(relay));
    }
  }
  program.trunk = optimal_tree(fabric, source, trunk_dests, selector);
  return program;
}

}  // namespace peel
