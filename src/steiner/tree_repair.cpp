#include "src/steiner/tree_repair.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/steiner/layer_peel.h"

namespace peel {

std::vector<LinkId> duplex_edge_pairs(const MulticastTree& tree) {
  std::vector<LinkId> pairs;
  pairs.reserve(tree.link_count());
  for (LinkId l : tree.links()) pairs.push_back(l - (l % 2));
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

TreeRepairResult repair_tree(const Topology& topo, const MulticastTree& tree) {
  TreeRepairResult out;
  const auto& tree_links = tree.links();
  if (std::none_of(tree_links.begin(), tree_links.end(),
                   [&](LinkId l) { return topo.link(l).failed; })) {
    out.tree = tree;
    out.links_reused = tree.link_count();
    return out;
  }
  out.changed = true;
  const NodeId source = tree.source();

  // Survivors: the source-connected portion after the cut. links() stores
  // every parent before its children, so one forward scan that keeps a link
  // iff it is live and its src is still connected finds exactly the nodes
  // that never lost their path from the source.
  std::vector<char> kept(topo.node_count(), 0);
  kept[static_cast<std::size_t>(source)] = 1;
  std::vector<LinkId> kept_links;
  kept_links.reserve(tree_links.size());
  for (LinkId l : tree_links) {
    const Link& lk = topo.link(l);
    if (lk.failed || !kept[static_cast<std::size_t>(lk.src)]) continue;
    kept[static_cast<std::size_t>(lk.dst)] = 1;
    kept_links.push_back(l);
  }

  std::vector<NodeId> orphans;
  for (NodeId d : tree.destinations()) {
    if (!kept[static_cast<std::size_t>(d)]) orphans.push_back(d);
  }

  // Re-peel only the orphans (§2.3 greedy over fresh BFS layers), with the
  // membership set pre-seeded by the survivors: an orphan adjacent to a
  // surviving switch one layer up reattaches with a single link, and only
  // freshly added members ever receive a parent edge.
  std::vector<std::pair<NodeId, NodeId>> parent_edges;  // (parent, child)
  if (!orphans.empty()) {
    const auto dist = live_bfs(topo, source);
    auto layer_of = [&](NodeId n) { return dist[static_cast<std::size_t>(n)]; };
    std::int32_t farthest = 0;
    for (NodeId d : orphans) {
      if (layer_of(d) < 0) {
        throw std::runtime_error("tree repair: destination unreachable: " +
                                 topo.name(d));
      }
      farthest = std::max(farthest, layer_of(d));
    }

    std::vector<char> in_tree = kept;
    std::vector<std::vector<NodeId>> members(
        static_cast<std::size_t>(farthest) + 1);
    for (NodeId d : orphans) {
      auto& flag = in_tree[static_cast<std::size_t>(d)];
      if (!flag) {
        flag = 1;
        members[static_cast<std::size_t>(layer_of(d))].push_back(d);
      }
    }
    parent_edges.reserve(orphans.size());
    std::vector<NodeId> ups_buf;

    for (std::int32_t i = farthest; i >= 1; --i) {
      auto& layer_members = members[static_cast<std::size_t>(i)];
      if (layer_members.empty()) continue;
      std::sort(layer_members.begin(), layer_members.end());

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

      while (!uncovered.empty()) {
        std::unordered_map<NodeId, int> coverage;
        for (NodeId v : uncovered) {
          for (NodeId u : upstream_neighbors(v)) ++coverage[u];
        }
        if (coverage.empty()) {
          throw std::runtime_error(
              "tree repair: no upstream neighbor at layer " +
              std::to_string(i - 1));
        }
        NodeId best = kInvalidNode;
        int best_count = 0;
        for (const auto& [u, c] : coverage) {
          if (c > best_count ||
              (c == best_count && (best == kInvalidNode || u < best))) {
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

      for (NodeId v : layer_members) {
        NodeId parent = kInvalidNode;
        for (NodeId u : upstream_neighbors(v)) {
          if (in_tree[static_cast<std::size_t>(u)] &&
              (parent == kInvalidNode || u < parent)) {
            parent = u;
          }
        }
        parent_edges.emplace_back(parent, v);
      }
    }
  }

  // Assemble the full edge list — surviving links in their original order,
  // reattachment edges root-first — then prune branches that end in a
  // non-destination with no children (subtrees whose destinations all
  // reattached elsewhere).
  struct Edge {
    NodeId src;
    NodeId dst;
    LinkId link;
  };
  std::vector<Edge> edges;
  edges.reserve(kept_links.size() + parent_edges.size());
  for (LinkId l : kept_links) {
    const Link& lk = topo.link(l);
    edges.push_back(Edge{lk.src, lk.dst, l});
  }
  const std::size_t first_new = edges.size();
  for (auto it = parent_edges.rbegin(); it != parent_edges.rend(); ++it) {
    edges.push_back(Edge{it->first, it->second,
                         topo.find_link(it->first, it->second)});
  }

  std::vector<char> is_dest(topo.node_count(), 0);
  for (NodeId d : tree.destinations()) is_dest[static_cast<std::size_t>(d)] = 1;
  std::unordered_map<NodeId, int> child_count;
  std::unordered_map<NodeId, std::size_t> in_edge;  // node -> edge index
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ++child_count[edges[i].src];
    in_edge[edges[i].dst] = i;
  }
  std::vector<char> removed(edges.size(), 0);
  std::vector<NodeId> prune;
  for (const auto& [node, idx] : in_edge) {
    if (!is_dest[static_cast<std::size_t>(node)] && child_count[node] == 0) {
      prune.push_back(node);
    }
  }
  // Processing order does not matter: the removed set is the closure of
  // useless leaves, the same whatever order they pop in.
  while (!prune.empty()) {
    const NodeId n = prune.back();
    prune.pop_back();
    const auto it = in_edge.find(n);
    if (it == in_edge.end()) continue;
    removed[it->second] = 1;
    const NodeId parent = edges[it->second].src;
    in_edge.erase(it);
    if (parent != source && --child_count[parent] == 0 &&
        !is_dest[static_cast<std::size_t>(parent)]) {
      prune.push_back(parent);
    }
  }

  MulticastTree repaired(source, tree.destinations());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (removed[i]) continue;
    repaired.add_link(topo, edges[i].link);
    if (i < first_new) {
      ++out.links_reused;
    } else {
      ++out.links_added;
    }
  }
  out.tree = std::move(repaired);
  return out;
}

}  // namespace peel
