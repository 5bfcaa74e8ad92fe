#include "src/topology/topology.h"

#include <cstdio>

namespace peel {

const char* to_string(NodeKind k) noexcept {
  switch (k) {
    case NodeKind::Gpu: return "gpu";
    case NodeKind::Host: return "host";
    case NodeKind::Tor: return "tor";
    case NodeKind::Agg: return "agg";
    case NodeKind::Core: return "core";
  }
  return "?";
}

NodeId Topology::add_node(Node n) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  out_links_.emplace_back();
  in_links_.emplace_back();
  parent_.push_back(kInvalidNode);
  return id;
}

LinkId Topology::add_duplex_link(NodeId a, NodeId b, GbpsRate rate,
                                 SimTime propagation, LinkKind kind) {
  assert(a >= 0 && b >= 0 && a != b);
  const auto forward = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, rate, propagation, kind, false});
  links_.push_back(Link{b, a, rate, propagation, kind, false});
  out_links_[static_cast<std::size_t>(a)].push_back(forward);
  in_links_[static_cast<std::size_t>(b)].push_back(forward);
  out_links_[static_cast<std::size_t>(b)].push_back(forward + 1);
  in_links_[static_cast<std::size_t>(a)].push_back(forward + 1);
  return forward;
}

std::vector<NodeId> Topology::live_neighbors(NodeId n) const {
  std::vector<NodeId> out;
  for (LinkId l : out_links(n)) {
    if (!links_[static_cast<std::size_t>(l)].failed) {
      out.push_back(links_[static_cast<std::size_t>(l)].dst);
    }
  }
  return out;
}

LinkId Topology::find_link(NodeId a, NodeId b) const {
  for (LinkId l : out_links(a)) {
    const Link& lk = links_[static_cast<std::size_t>(l)];
    if (lk.dst == b && !lk.failed) return l;
  }
  return kInvalidLink;
}

std::string Topology::name(NodeId id) const {
  const Node& n = node(id);
  char buf[64];
  if (n.pod >= 0) {
    std::snprintf(buf, sizeof buf, "%s[p%d.%d]", to_string(n.kind), n.pod, n.tier_index);
  } else {
    std::snprintf(buf, sizeof buf, "%s[%d]", to_string(n.kind), n.tier_index);
  }
  return buf;
}

NodeId Topology::tor_of_endpoint(NodeId endpoint) const {
  NodeId cur = endpoint;
  while (cur != kInvalidNode && kind(cur) != NodeKind::Tor) {
    cur = parent_[static_cast<std::size_t>(cur)];
  }
  return cur;
}

void Topology::set_duplex_failed(LinkId l, bool failed) {
  for (LinkId d : {l, reverse_of(l)}) {
    Link& lk = links_[static_cast<std::size_t>(d)];
    if (lk.failed == failed) continue;
    lk.failed = failed;
    if (failed) {
      ++failed_links_;
    } else {
      --failed_links_;
    }
  }
}

std::vector<std::int32_t> live_bfs(const Topology& topo, NodeId origin,
                                   Walk walk, std::vector<NodeId>* parents) {
  std::vector<std::int32_t> dist(topo.node_count(), kUnreached);
  if (parents != nullptr) parents->assign(topo.node_count(), kInvalidNode);
  std::vector<NodeId> queue;  // FIFO: visited by index
  queue.reserve(topo.node_count());
  queue.push_back(origin);
  dist[static_cast<std::size_t>(origin)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    const std::int32_t next_dist = dist[static_cast<std::size_t>(cur)] + 1;
    const std::span<const LinkId> links =
        walk == Walk::Out ? topo.out_links(cur) : topo.in_links(cur);
    for (LinkId l : links) {
      const Link& lk = topo.link(l);
      if (lk.failed) continue;
      const NodeId next = walk == Walk::Out ? lk.dst : lk.src;
      std::int32_t& d = dist[static_cast<std::size_t>(next)];
      if (d != kUnreached) continue;
      d = next_dist;
      if (parents != nullptr) (*parents)[static_cast<std::size_t>(next)] = cur;
      queue.push_back(next);
    }
  }
  return dist;
}

}  // namespace peel
