#include "src/steiner/layer_peel.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace peel {

int farthest_destination_distance(const Topology& topo, NodeId source,
                                  std::span<const NodeId> destinations) {
  const auto dist = live_bfs(topo, source);
  int farthest = 0;
  for (NodeId d : destinations) {
    const auto dd = dist[static_cast<std::size_t>(d)];
    if (dd < 0) {
      throw std::runtime_error("destination unreachable: " + topo.name(d));
    }
    farthest = std::max(farthest, static_cast<int>(dd));
  }
  return farthest;
}

MulticastTree layer_peel_tree(const Topology& topo, NodeId source,
                              std::span<const NodeId> destinations) {
  const auto dist = live_bfs(topo, source);
  auto layer_of = [&](NodeId n) { return dist[static_cast<std::size_t>(n)]; };

  std::int32_t farthest = 0;
  std::vector<NodeId> dests(destinations.begin(), destinations.end());
  for (NodeId d : dests) {
    if (d == source) {
      throw std::runtime_error("source listed among destinations");
    }
    if (layer_of(d) < 0) {
      throw std::runtime_error("destination unreachable: " + topo.name(d));
    }
    farthest = std::max(farthest, layer_of(d));
  }

  // Membership set T = {source} ∪ D, grown as the greedy adds switches.
  std::vector<char> in_tree(topo.node_count(), 0);
  in_tree[static_cast<std::size_t>(source)] = 1;
  // members[i] = tree members at hop layer i (deduplicated).
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(farthest) + 1);
  for (NodeId d : dests) {
    auto& flag = in_tree[static_cast<std::size_t>(d)];
    if (!flag) {
      flag = 1;
      members[static_cast<std::size_t>(layer_of(d))].push_back(d);
    }
  }

  MulticastTree tree(source, dests);
  std::vector<std::pair<NodeId, NodeId>> parent_edges;  // (parent, child)
  parent_edges.reserve(dests.size());
  // Reused across all upstream_neighbors calls: the helper runs
  // O(|layer|^2) times inside the cover loop, and a fresh vector per call
  // was pure allocation churn on recovery-heavy flap runs.
  std::vector<NodeId> ups_buf;

  // Peel from the outermost layer inward. The pass for layer i may add
  // switches at layer i-1, which the next iteration then connects.
  for (std::int32_t i = farthest; i >= 1; --i) {
    auto& layer_members = members[static_cast<std::size_t>(i)];
    if (layer_members.empty()) continue;
    std::sort(layer_members.begin(), layer_members.end());

    // A member is covered once some in-neighbor one layer closer to the
    // source is in T.
    auto upstream_neighbors = [&](NodeId v) -> const std::vector<NodeId>& {
      ups_buf.clear();
      for (LinkId l : topo.in_links(v)) {
        const Link& lk = topo.link(l);
        if (!lk.failed && layer_of(lk.src) == i - 1) ups_buf.push_back(lk.src);
      }
      return ups_buf;
    };

    std::vector<NodeId> uncovered;
    uncovered.reserve(layer_members.size());
    for (NodeId v : layer_members) {
      const auto& ups = upstream_neighbors(v);
      const bool covered = std::any_of(ups.begin(), ups.end(), [&](NodeId u) {
        return in_tree[static_cast<std::size_t>(u)] != 0;
      });
      if (!covered) uncovered.push_back(v);
    }

    // Greedy set cover: repeatedly add the layer-(i-1) switch adjacent to the
    // most uncovered members.
    while (!uncovered.empty()) {
      std::unordered_map<NodeId, int> coverage;
      for (NodeId v : uncovered) {
        for (NodeId u : upstream_neighbors(v)) ++coverage[u];
      }
      if (coverage.empty()) {
        throw std::runtime_error("layer peel: no upstream neighbor at layer " +
                                 std::to_string(i - 1));
      }
      NodeId best = kInvalidNode;
      int best_count = 0;
      for (const auto& [u, c] : coverage) {
        if (c > best_count || (c == best_count && (best == kInvalidNode || u < best))) {
          best = u;
          best_count = c;
        }
      }
      in_tree[static_cast<std::size_t>(best)] = 1;
      members[static_cast<std::size_t>(i - 1)].push_back(best);
      std::erase_if(uncovered, [&](NodeId v) {
        const auto& ups = upstream_neighbors(v);
        return std::find(ups.begin(), ups.end(), best) != ups.end();
      });
    }

    // Attach every member of this layer to its lowest-id tree parent.
    for (NodeId v : layer_members) {
      NodeId parent = kInvalidNode;
      for (NodeId u : upstream_neighbors(v)) {
        if (in_tree[static_cast<std::size_t>(u)] && (parent == kInvalidNode || u < parent)) {
          parent = u;
        }
      }
      parent_edges.emplace_back(parent, v);
    }
  }

  // parent_edges were discovered outermost-first; add them root-first so each
  // child's parent is already in the tree.
  for (auto it = parent_edges.rbegin(); it != parent_edges.rend(); ++it) {
    tree.add_link(topo, topo.find_link(it->first, it->second));
  }
  return tree;
}

}  // namespace peel
