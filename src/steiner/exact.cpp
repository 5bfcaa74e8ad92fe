#include "src/steiner/exact.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace peel {
namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 4;

/// Unit-cost BFS from `origin` over live links, with parent links for path
/// reconstruction (parent[v] = predecessor of v on a shortest path).
struct BfsField {
  std::vector<int> dist;
  std::vector<NodeId> parent;
};

BfsField bfs(const Topology& topo, NodeId origin) {
  BfsField f;
  f.dist = live_bfs(topo, origin, Walk::Out, &f.parent);
  std::ranges::replace(f.dist, kUnreached, kInf);  // the DP adds distances
  return f;
}

/// The full Dreyfus–Wagner DP with backtracking state.
struct DreyfusWagner {
  const Topology& topo;
  std::vector<NodeId> terminals;  // deduplicated; the last one is the root
  std::size_t base = 0;           // terminals in the subset universe
  std::vector<BfsField> term_bfs;

  // dp[mask][v]; choice: sub > 0 -> merge of (sub, v) and (mask^sub, v);
  // otherwise pred != invalid -> extend from (mask, pred); otherwise base.
  std::vector<std::vector<int>> dp;
  std::vector<std::vector<std::uint32_t>> sub_choice;
  std::vector<std::vector<NodeId>> pred;

  DreyfusWagner(const Topology& t, NodeId source, std::span<const NodeId> dests,
                int max_terminals)
      : topo(t) {
    terminals.assign(dests.begin(), dests.end());
    terminals.push_back(source);
    std::sort(terminals.begin(), terminals.end());
    terminals.erase(std::unique(terminals.begin(), terminals.end()),
                    terminals.end());
    if (terminals.size() > static_cast<std::size_t>(max_terminals)) {
      throw std::invalid_argument("exact steiner: too many terminals (" +
                                  std::to_string(terminals.size()) + ")");
    }
    base = terminals.size() - 1;
    term_bfs.reserve(terminals.size());
    for (NodeId q : terminals) {
      term_bfs.push_back(bfs(topo, q));
      for (NodeId other : terminals) {
        if (term_bfs.back().dist[static_cast<std::size_t>(other)] >= kInf) {
          throw std::runtime_error("exact steiner: disconnected terminals");
        }
      }
    }
  }

  void solve() {
    const std::size_t n = topo.node_count();
    const std::size_t num_masks = std::size_t{1} << base;
    dp.assign(num_masks, std::vector<int>(n, kInf));
    sub_choice.assign(num_masks, std::vector<std::uint32_t>(n, 0));
    pred.assign(num_masks, std::vector<NodeId>(n, kInvalidNode));

    for (std::size_t i = 0; i < base; ++i) {
      dp[std::size_t{1} << i] = term_bfs[i].dist;
    }

    for (std::size_t mask = 1; mask < num_masks; ++mask) {
      auto& d = dp[mask];
      if ((mask & (mask - 1)) != 0) {  // merge step
        for (std::size_t sub = (mask - 1) & mask; sub > (mask ^ sub);
             sub = (sub - 1) & mask) {
          const auto& a = dp[sub];
          const auto& b = dp[mask ^ sub];
          for (std::size_t v = 0; v < n; ++v) {
            if (a[v] >= kInf || b[v] >= kInf) continue;
            const int merged = a[v] + b[v];
            if (merged < d[v]) {
              d[v] = merged;
              sub_choice[mask][v] = static_cast<std::uint32_t>(sub);
              pred[mask][v] = kInvalidNode;
            }
          }
        }
      }
      // Extend step: bucketed unit-weight relaxation.
      std::vector<std::vector<NodeId>> buckets;
      for (std::size_t v = 0; v < n; ++v) {
        if (d[v] >= kInf) continue;
        const auto c = static_cast<std::size_t>(d[v]);
        if (buckets.size() <= c) buckets.resize(c + 1);
        buckets[c].push_back(static_cast<NodeId>(v));
      }
      for (std::size_t c = 0; c < buckets.size(); ++c) {
        for (std::size_t i = 0; i < buckets[c].size(); ++i) {
          const NodeId cur = buckets[c][i];
          if (d[static_cast<std::size_t>(cur)] != static_cast<int>(c)) continue;
          for (LinkId l : topo.out_links(cur)) {
            const Link& lk = topo.link(l);
            if (lk.failed) continue;
            const auto next = static_cast<std::size_t>(lk.dst);
            if (d[next] > static_cast<int>(c) + 1) {
              d[next] = static_cast<int>(c) + 1;
              sub_choice[mask][next] = 0;
              pred[mask][next] = cur;
              const auto nc = c + 1;
              if (buckets.size() <= nc) buckets.resize(nc + 1);
              buckets[nc].push_back(lk.dst);
            }
          }
        }
      }
    }
  }

  [[nodiscard]] int cost() const {
    return dp[(std::size_t{1} << base) - 1]
             [static_cast<std::size_t>(terminals[base])];
  }

  /// Collects the optimal tree's undirected edges into `edges`.
  void collect(std::size_t mask, NodeId v,
               std::vector<std::pair<NodeId, NodeId>>& edges) const {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = pred[mask][vi];
    if (p != kInvalidNode) {
      edges.emplace_back(p, v);
      collect(mask, p, edges);
      return;
    }
    const std::uint32_t sub = sub_choice[mask][vi];
    if (sub != 0) {
      collect(sub, v, edges);
      collect(mask ^ sub, v, edges);
      return;
    }
    // Base: mask is a singleton {i}; walk the BFS shortest path back to q_i.
    int idx = -1;
    for (std::size_t i = 0; i < base; ++i) {
      if (mask == (std::size_t{1} << i)) idx = static_cast<int>(i);
    }
    if (idx < 0) {
      throw std::logic_error("exact steiner: malformed backtrack state");
    }
    NodeId cur = v;
    while (cur != terminals[static_cast<std::size_t>(idx)]) {
      const NodeId parent =
          term_bfs[static_cast<std::size_t>(idx)].parent[static_cast<std::size_t>(cur)];
      edges.emplace_back(parent, cur);
      cur = parent;
    }
  }
};

}  // namespace

int exact_steiner_cost(const Topology& topo, NodeId source,
                       std::span<const NodeId> destinations, int max_terminals) {
  DreyfusWagner dw(topo, source, destinations, max_terminals);
  if (dw.terminals.size() <= 1) return 0;
  dw.solve();
  return dw.cost();
}

MulticastTree exact_steiner_tree(const Topology& topo, NodeId source,
                                 std::span<const NodeId> destinations,
                                 int max_terminals) {
  MulticastTree tree(source, {destinations.begin(), destinations.end()});
  DreyfusWagner dw(topo, source, destinations, max_terminals);
  if (dw.terminals.size() <= 1) return tree;
  dw.solve();

  std::vector<std::pair<NodeId, NodeId>> edges;
  dw.collect((std::size_t{1} << dw.base) - 1, dw.terminals[dw.base], edges);

  // Deduplicate undirected edges (ties in the DP can revisit a path), then
  // orient away from the source by BFS over the edge set.
  std::vector<std::pair<NodeId, NodeId>> unique_edges;
  for (auto [a, b] : edges) {
    if (a > b) std::swap(a, b);
    unique_edges.emplace_back(a, b);
  }
  std::sort(unique_edges.begin(), unique_edges.end());
  unique_edges.erase(std::unique(unique_edges.begin(), unique_edges.end()),
                     unique_edges.end());

  std::vector<std::vector<NodeId>> adj(topo.node_count());
  for (const auto& [a, b] : unique_edges) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  std::vector<char> seen(topo.node_count(), 0);
  seen[static_cast<std::size_t>(source)] = 1;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    for (NodeId next : adj[static_cast<std::size_t>(cur)]) {
      if (seen[static_cast<std::size_t>(next)]) continue;
      seen[static_cast<std::size_t>(next)] = 1;
      tree.add_link(topo, topo.find_link(cur, next));
      queue.push_back(next);
    }
  }
  return tree;
}

}  // namespace peel
