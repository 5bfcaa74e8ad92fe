#include "src/baselines/bandwidth.h"

#include <algorithm>
#include <numeric>

namespace peel {

int LinkLoad::total() const {
  return std::accumulate(per_link.begin(), per_link.end(), 0);
}

int LinkLoad::core_total(const Topology& topo) const {
  int sum = 0;
  for (std::size_t l = 0; l < per_link.size(); ++l) {
    const Link& lk = topo.link(static_cast<LinkId>(l));
    if (is_switch(topo.kind(lk.src)) && is_switch(topo.kind(lk.dst))) {
      sum += per_link[l];
    }
  }
  return sum;
}

int LinkLoad::max_on_any_link() const {
  return per_link.empty() ? 0 : *std::max_element(per_link.begin(), per_link.end());
}

std::vector<std::pair<NodeId, NodeId>> ring_pairs(NodeId source,
                                                  std::span<const NodeId> destinations) {
  std::vector<NodeId> order{source};
  order.insert(order.end(), destinations.begin(), destinations.end());
  std::sort(order.begin() + 1, order.end());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(order.size());
  // The classic ring collective runs on a *closed* logical ring — Figure 1a
  // charges the wrap-around hop too, which is what makes rings traverse core
  // links twice even under locality-sorted placement.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    pairs.emplace_back(order[i], order[i + 1]);
  }
  if (order.size() > 2) pairs.emplace_back(order.back(), order.front());
  return pairs;
}

std::vector<std::pair<NodeId, NodeId>> binary_tree_pairs(
    NodeId source, std::span<const NodeId> destinations) {
  std::vector<NodeId> order{source};
  order.insert(order.end(), destinations.begin(), destinations.end());
  std::sort(order.begin() + 1, order.end());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t r = 1; r < order.size(); ++r) {
    pairs.emplace_back(order[(r - 1) / 2], order[r]);
  }
  return pairs;
}

LinkLoad unicast_load(const Topology& topo, Router& router,
                      std::span<const std::pair<NodeId, NodeId>> pairs,
                      std::uint64_t salt) {
  LinkLoad load;
  load.per_link.assign(topo.link_count(), 0);
  std::uint64_t flow = 0;
  for (const auto& [src, dst] : pairs) {
    const Route route = router.path(
        src, dst,
        ecmp_hash(static_cast<std::uint64_t>(src) << 20 | static_cast<std::uint64_t>(dst),
                  flow++, salt));
    for (LinkId l : route.links) ++load.per_link[static_cast<std::size_t>(l)];
  }
  return load;
}

LinkLoad tree_load(const Topology& topo, const MulticastTree& tree) {
  LinkLoad load;
  load.per_link.assign(topo.link_count(), 0);
  for (LinkId l : tree.links()) ++load.per_link[static_cast<std::size_t>(l)];
  return load;
}

}  // namespace peel
