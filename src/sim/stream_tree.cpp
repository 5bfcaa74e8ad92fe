#include "src/sim/stream_tree.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

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

  auto tree = std::make_shared<StreamTree>();
  StreamTree& t = *tree;
  t.source = spec.source;
  t.cnp_mode = spec.cnp_mode;
  t.tag = spec.tag;
  // One sort of (node, kind, position) keys indexes the spec with no search
  // and no table sized by the fabric. Endpoint 2i is link i's source, 2i + 1
  // its destination, 2 * links.size() the stream's source. The walk makes
  // each distinct endpoint node a tree node and lays out the links grouped
  // stably on their source. A receiver sorts after its node's endpoints and
  // its own earlier listings.
  const std::size_t link_count = spec.links.size();
  const std::size_t endpoints = 2 * link_count + 1;
  const auto key = [](NodeId n, std::uint64_t receiver, std::size_t pos) {
    return static_cast<std::uint64_t>(n) << 33 | receiver << 32 | pos;
  };
  std::vector<std::uint64_t> keys;
  keys.reserve(endpoints + spec.receivers.size());
  for (std::size_t i = 0; i < link_count; ++i) {
    const LinkId l = spec.links[i];
    if (l < 0 || static_cast<std::size_t>(l) >= topo.link_count()) {
      reject("stream spec names an unknown link");
    }
    keys.push_back(key(topo.link(l).src, 0, 2 * i));
    keys.push_back(key(topo.link(l).dst, 0, 2 * i + 1));
  }
  keys.push_back(key(spec.source, 0, 2 * link_count));
  for (std::size_t i = 0; i < spec.receivers.size(); ++i) {
    keys.push_back(key(spec.receivers[i], 1, i));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::int32_t> at(endpoints);  // endpoint -> tree index
  // Per receiver listing: its tree index, -1 off the tree, -2 a repeat.
  std::vector<std::int32_t> receiver_at(spec.receivers.size(), -2);
  NodeId last_receiver = kInvalidNode;
  t.out_links.reserve(link_count);
  t.out_dst.reserve(link_count);
  for (const std::uint64_t k : keys) {
    const auto n = static_cast<NodeId>(k >> 33);
    const auto pos = static_cast<std::size_t>(k & 0xffffffffu);
    const bool on_tree = !t.nodes.empty() && t.nodes.back().node == n;
    if ((k >> 32 & 1) == 0) {
      if (!on_tree) {
        const auto o = static_cast<std::int32_t>(t.out_links.size());
        t.nodes.push_back({.node = n, .out_begin = o, .out_end = o});
      }
      at[pos] = static_cast<std::int32_t>(t.nodes.size() - 1);
      if (pos % 2 == 0 && pos < 2 * link_count) {  // link pos / 2 leaves n
        t.out_links.push_back(spec.links[pos / 2]);
        // Its destination endpoint, made a tree index after the walk.
        t.out_dst.push_back(static_cast<std::int32_t>(pos + 1));
        ++t.nodes.back().out_end;
      }
    } else if (n != last_receiver) {
      last_receiver = n;
      receiver_at[pos] =
          on_tree ? static_cast<std::int32_t>(t.nodes.size() - 1) : -1;
    }
  }
  for (std::int32_t& d : t.out_dst) d = at[static_cast<std::size_t>(d)];
  for (std::size_t i = 0; i < spec.receivers.size(); ++i) {
    if (receiver_at[i] == -2) continue;
    t.receivers.push_back(spec.receivers[i]);
    t.receiver_at.push_back(receiver_at[i]);
  }
  const auto node_at = [&](std::int32_t i) -> StreamTree::Node& {
    return t.nodes[static_cast<std::size_t>(i)];
  };
  const std::int32_t root = at[2 * link_count];
  if (t.out_of(node_at(root)).empty()) reject("stream source has no out-links");

  // Breadth-first from the source: the first link to enter a node becomes
  // its parent.
  std::vector<std::int32_t> frontier{root};
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const StreamTree::Node& from = node_at(frontier[i]);
    for (std::int32_t o = from.out_begin; o < from.out_end; ++o) {
      const std::int32_t child = t.out_dst[static_cast<std::size_t>(o)];
      StreamTree::Node& cn = node_at(child);
      if (cn.parent != kInvalidLink || child == root) continue;
      cn.parent = t.out_links[static_cast<std::size_t>(o)];
      cn.up = frontier[i];
      frontier.push_back(child);
    }
  }
  // A topological pass over the reached part rejects a cycle (a segment
  // would lap it forever) and counts each node's paths.
  const auto children = [&](std::int32_t i) {
    const StreamTree::Node& n = node_at(i);
    return std::span<const std::int32_t>(t.out_dst)
        .subspan(static_cast<std::size_t>(n.out_begin),
                 static_cast<std::size_t>(n.out_end - n.out_begin));
  };
  std::vector<std::int32_t> fan_in(t.nodes.size(), 0);
  for (std::int32_t i : frontier) {
    for (std::int32_t c : children(i)) ++fan_in[static_cast<std::size_t>(c)];
  }
  std::vector<std::int32_t> order;
  if (fan_in[static_cast<std::size_t>(root)] == 0) order.push_back(root);
  node_at(root).paths = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::int64_t paths = node_at(order[i]).paths;
    for (std::int32_t c : children(order[i])) {
      StreamTree::Node& cn = node_at(c);
      cn.paths = static_cast<std::int32_t>(
          std::min<std::int64_t>(cn.paths + paths, INT32_MAX));
      if (--fan_in[static_cast<std::size_t>(c)] == 0) order.push_back(c);
    }
  }
  if (order.size() != frontier.size()) {
    reject("stream links have a cycle reachable from the source");
  }

  if (spec.contributors.empty()) {
    // Every node the walk visits is the source or an out-link's dst.
    const auto fan_out = [&](NodeId n) { return t.out_of(*t.find(n)); };
    t.injectors.push_back({spec.source, kInvalidLink,
                           pacing_link(topo, spec.source, fan_out), root});
    return tree;
  }

  // A reduce stream's links are a down-tree rooted at the pivot
  // (spec.source); contributions climb its exact mirror. The walk above
  // reaching every node, over exactly one link per non-root node, is what
  // makes it such a tree.
  if (frontier.size() != t.nodes.size() ||
      t.out_links.size() + 1 != t.nodes.size()) {
    reject("reduce stream links are not a tree rooted at spec.source");
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
        {c, topo.reverse_of(tn->parent), pacing_link(topo, c, climb),
         static_cast<std::int32_t>(tn - t.nodes.data())});
  }
  for (StreamTree::Node& tn : t.nodes) {
    if (t.out_of(tn).empty()) continue;
    tn.combiner = static_cast<std::int32_t>(t.combiners.size());
    StreamTree::Combiner& cb = t.combiners.emplace_back();
    cb.node = tn.node;
    cb.at = static_cast<std::int32_t>(&tn - t.nodes.data());
    if (tn.parent != kInvalidLink) cb.up_link = topo.reverse_of(tn.parent);
    cb.child_links.reserve(t.out_of(tn).size());
    for (LinkId l : t.out_of(tn)) cb.child_links.push_back(topo.reverse_of(l));
    std::sort(cb.child_links.begin(), cb.child_links.end());
  }
  return tree;
}

void ChunkTable::send(int chunk, Bytes bytes) {
  if (closed_) throw std::logic_error("send_chunk on closed stream");
  if (bytes <= 0) throw std::invalid_argument("chunk bytes must be positive");
  if (chunk < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  const auto c = static_cast<std::size_t>(chunk);
  if (target(c) > 0) {
    throw std::logic_error("chunk index already sent on this stream");
  }
  if (want_.size() <= c) want_.resize(c + 1, 0);
  want_[c] = bytes;
}

void ChunkTable::close() {
  closed_ = true;
  std::vector<Bytes>{}.swap(want_);
}

}  // namespace peel
