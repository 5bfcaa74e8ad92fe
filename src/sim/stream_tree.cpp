#include "src/sim/stream_tree.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace peel {

namespace {

/// The link that paces an injector at `start`. `hop(n)` lists the links a
/// segment leaves `n` on: a multicast source's fan-out, or a contributor's
/// one mirrored up-link. The rate limiter sits at the NIC, so the walk
/// passes through single-NVLink hops and paces against the slowest link of
/// the first hop that leaves NVLink or fans out; pacing against NVLink would
/// let a GPU-sourced stream dump the whole message into local buffers before
/// congestion control can act. A path that never leaves NVLink (intra-host
/// delivery) has no NIC and paces against its first hop.
template <typename HopFn>
LinkId pacing_link(const Topology& topo, NodeId start, HopFn hop) {
  LinkId first = kInvalidLink;
  NodeId at = start;
  for (int depth = 0; depth < 4; ++depth) {
    const std::span<const LinkId> links = hop(at);
    if (links.empty()) break;
    LinkId slowest = links.front();
    bool all_nvlink = true;
    for (LinkId l : links) {
      if (topo.link(l).rate.bytes_per_ns() <
          topo.link(slowest).rate.bytes_per_ns()) {
        slowest = l;
      }
      all_nvlink &= topo.link(l).kind == LinkKind::NvLink;
    }
    if (first == kInvalidLink) first = slowest;
    if (!all_nvlink || links.size() > 1) return slowest;
    at = topo.link(links.front()).dst;
  }
  return first;
}

[[noreturn]] void reject(const char* why) { throw std::invalid_argument(why); }

}  // namespace

std::shared_ptr<const StreamTree> compile_stream(const Topology& topo,
                                                 const StreamSpec& spec) {
  const auto check_node = [&](NodeId n) {
    if (n < 0 || static_cast<std::size_t>(n) >= topo.node_count()) {
      reject("stream spec names an unknown node");
    }
  };
  check_node(spec.source);
  for (NodeId n : spec.receivers) check_node(n);
  for (NodeId n : spec.contributors) check_node(n);
  std::size_t link_total = 0;
  for (const auto& [node, outs] : spec.forward) {
    check_node(node);
    for (LinkId l : outs) {
      if (l < 0 || static_cast<std::size_t>(l) >= topo.link_count()) {
        reject("stream spec names an unknown link");
      }
      if (topo.link(l).src != node) {
        reject("stream spec lists an out-link under a node it does not leave");
      }
    }
    link_total += outs.size();
  }
  std::vector<NodeId> ids{spec.source};
  ids.reserve(1 + spec.forward.size() + link_total);
  for (const auto& [node, outs] : spec.forward) {
    ids.push_back(node);
    for (LinkId l : outs) ids.push_back(topo.link(l).dst);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  auto tree = std::make_shared<StreamTree>();
  StreamTree& t = *tree;
  t.source = spec.source;
  t.cnp_mode = spec.cnp_mode;
  t.tag = spec.tag;
  t.out_links.reserve(link_total);
  // Node order fixes the out_links layout and the combiner order, so neither
  // depends on the forward map's iteration order.
  t.nodes.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    StreamTree::Node& tn = t.nodes[i];
    tn.node = ids[i];
    tn.out_begin = static_cast<std::int32_t>(t.out_links.size());
    if (const auto it = spec.forward.find(tn.node); it != spec.forward.end()) {
      const std::vector<LinkId>& outs = it->second;
      t.out_links.insert(t.out_links.end(), outs.begin(), outs.end());
    }
    tn.out_end = static_cast<std::int32_t>(t.out_links.size());
  }
  const auto index_of = [&](NodeId n) {
    return static_cast<std::size_t>(t.find(n) - t.nodes.data());
  };
  const std::size_t root = index_of(spec.source);
  if (t.out_of(t.nodes[root]).empty()) reject("stream source has no out-links");

  // Breadth-first from the source: the first link to enter a node becomes
  // its parent.
  std::vector<std::size_t> frontier{root};
  std::size_t reached_links = 0;
  bool enters_source = false;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (LinkId l : t.out_of(t.nodes[frontier[i]])) {
      ++reached_links;
      const std::size_t child = index_of(topo.link(l).dst);
      enters_source |= child == root;
      if (t.nodes[child].parent != kInvalidLink || child == root) continue;
      t.nodes[child].parent = l;
      t.nodes[child].up = static_cast<std::int32_t>(frontier[i]);
      frontier.push_back(child);
    }
  }
  // One link into every reached node but the source, and none into it, is
  // a tree: one path everywhere. Anything else gets a topological pass over
  // the reached part, which both rejects a cycle (a segment would lap it
  // forever) and counts each node's paths.
  if (!enters_source && reached_links + 1 == frontier.size()) {
    for (std::size_t i : frontier) t.nodes[i].paths = 1;
  } else {
    std::vector<std::int32_t> fan_in(t.nodes.size(), 0);
    for (std::size_t i : frontier) {
      for (LinkId l : t.out_of(t.nodes[i])) {
        ++fan_in[index_of(topo.link(l).dst)];
      }
    }
    std::vector<std::size_t> order;
    if (fan_in[root] == 0) order.push_back(root);
    t.nodes[root].paths = 1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::int64_t paths = t.nodes[order[i]].paths;
      for (LinkId l : t.out_of(t.nodes[order[i]])) {
        const std::size_t child = index_of(topo.link(l).dst);
        StreamTree::Node& cn = t.nodes[child];
        cn.paths = static_cast<std::int32_t>(
            std::min<std::int64_t>(cn.paths + paths, INT32_MAX));
        if (--fan_in[child] == 0) order.push_back(child);
      }
    }
    if (order.size() != frontier.size()) {
      reject("stream forward map has a cycle reachable from the source");
    }
  }

  std::unordered_set<NodeId> listed(spec.receivers.size());
  t.receivers.reserve(spec.receivers.size());
  for (NodeId r : spec.receivers) {
    if (listed.insert(r).second) t.receivers.push_back(r);
  }

  if (spec.contributors.empty()) {
    // Every node the walk visits is the source or an out-link's dst.
    const auto fan_out = [&](NodeId n) { return t.out_of(*t.find(n)); };
    t.injectors.push_back(
        {spec.source, kInvalidLink, pacing_link(topo, spec.source, fan_out)});
    return tree;
  }

  // A reduce stream's forward map is a down-tree rooted at the pivot
  // (spec.source); contributions climb its exact mirror. The walk above
  // reaching every node, over exactly one link per non-root node, is what
  // makes it such a tree.
  if (frontier.size() != t.nodes.size() ||
      t.out_links.size() + 1 != t.nodes.size()) {
    reject("reduce stream forward map is not a tree rooted at spec.source");
  }
  LinkId mirror = kInvalidLink;
  const auto climb = [&](NodeId n) {
    const LinkId parent = t.find(n)->parent;
    if (parent == kInvalidLink) return std::span<const LinkId>{};
    mirror = topo.reverse_of(parent);
    return std::span<const LinkId>(&mirror, 1);
  };
  for (NodeId c : spec.contributors) {
    const StreamTree::Node* tn = t.find(c);
    if (tn == nullptr || !t.out_of(*tn).empty()) {
      reject("reduce contributor is not a leaf of the down-tree");
    }
    t.injectors.push_back(
        {c, topo.reverse_of(tn->parent), pacing_link(topo, c, climb)});
  }
  for (const StreamTree::Node& tn : t.nodes) {
    if (t.out_of(tn).empty()) continue;
    StreamTree::Combiner& cb = t.combiners.emplace_back();
    cb.node = tn.node;
    if (tn.parent != kInvalidLink) cb.up_link = topo.reverse_of(tn.parent);
    cb.child_links.reserve(t.out_of(tn).size());
    for (LinkId l : t.out_of(tn)) cb.child_links.push_back(topo.reverse_of(l));
    std::sort(cb.child_links.begin(), cb.child_links.end());
  }
  return tree;
}

}  // namespace peel
