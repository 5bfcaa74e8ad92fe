#include "src/routing/router.h"

namespace peel {

std::uint64_t ecmp_hash(std::uint64_t a, std::uint64_t b, std::uint64_t salt) noexcept {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + (salt << 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const std::vector<std::int32_t>& Router::distances_to(NodeId dst) {
  auto it = dist_cache_.find(dst);
  if (it == dist_cache_.end()) {
    // Distances *to* dst follow links backwards.
    it = dist_cache_.emplace(dst, live_bfs(*topo_, dst, Walk::In)).first;
  }
  return it->second;
}

std::vector<std::int32_t> Router::distances_from(NodeId src) const {
  return live_bfs(*topo_, src);
}

Route Router::path(NodeId src, NodeId dst, std::uint64_t flow_hash) {
  Route route;
  if (src == dst) {
    route.nodes.push_back(src);
    return route;
  }
  const auto& dist = distances_to(dst);
  if (dist[static_cast<std::size_t>(src)] == kUnreached) return route;

  route.nodes.push_back(src);
  NodeId cur = src;
  std::uint64_t hop = 0;
  while (cur != dst) {
    // Collect all live links that make progress toward dst.
    std::vector<LinkId> candidates;
    const std::int32_t here = dist[static_cast<std::size_t>(cur)];
    for (LinkId l : topo_->out_links(cur)) {
      const Link& lk = topo_->link(l);
      if (lk.failed) continue;
      if (dist[static_cast<std::size_t>(lk.dst)] == here - 1) candidates.push_back(l);
    }
    const auto pick = static_cast<std::size_t>(
        ecmp_hash(flow_hash, hop) % candidates.size());
    const LinkId chosen = candidates[pick];
    route.links.push_back(chosen);
    cur = topo_->link(chosen).dst;
    route.nodes.push_back(cur);
    ++hop;
  }
  return route;
}

}  // namespace peel
