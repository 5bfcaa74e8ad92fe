// Figure 1: unicast-based Broadcast in a two-tier leaf-spine cluster
// traverses the same core links up to ~80% more often than the
// multicast-optimal solution.
//
// The figure's fabric: 2 spines (S0,S1), 2 leaves (L0,L1), 8 GPUs (4 per
// leaf).  We count how many times each physical link carries the message
// under (a) a unicast ring, (b) a unicast binary tree, (c) the optimal
// in-network multicast tree, and report aggregate + core-link traversals.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/baselines/bandwidth.h"
#include "src/harness/table.h"
#include "src/steiner/symmetric.h"
#include "src/topology/leaf_spine.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Figure 1 — the bandwidth gap", "Fig. 1 (a)-(c)");

  // 8 GPUs attached directly to the leaves (the figure draws no host tier).
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 4, 0});
  const NodeId source = ls.hosts[0];  // G0
  const std::vector<NodeId> dests(ls.hosts.begin() + 1, ls.hosts.end());

  Router router(ls.topo);
  const LinkLoad ring = unicast_load(ls.topo, router, ring_pairs(source, dests));
  const LinkLoad tree =
      unicast_load(ls.topo, router, binary_tree_pairs(source, dests));
  const MulticastTree opt_tree = optimal_leaf_spine_tree(ls, source, dests, 0);
  const LinkLoad optimal = tree_load(ls.topo, opt_tree);

  Table table({"scheme", "total traversals", "core-link traversals",
               "max on one link", "core overshoot vs optimal"});
  CsvWriter csv("fig1_bandwidth_gap.csv",
                {"scheme", "total", "core", "max_link", "core_overshoot_pct"});
  auto row = [&](const char* name, const LinkLoad& load) {
    const int core = load.core_total(ls.topo);
    const int opt_core = optimal.core_total(ls.topo);
    const double overshoot =
        100.0 * (static_cast<double>(core) / static_cast<double>(opt_core) - 1.0);
    table.add_row({name, cell("%d", load.total()), cell("%d", core),
                   cell("%d", load.max_on_any_link()),
                   cell("%+.0f%%", overshoot)});
    csv.row({name, std::to_string(load.total()), std::to_string(core),
             std::to_string(load.max_on_any_link()), cell("%.1f", overshoot)});
  };
  row("Ring", ring);
  row("Tree", tree);
  row("Optimal", optimal);
  table.print(std::cout);

  std::printf("\npaper: rings/trees overshoot the multicast-optimal core "
              "traffic by 70-80%%; CSV -> fig1_bandwidth_gap.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("fig1_bandwidth_gap", run_bench); }
