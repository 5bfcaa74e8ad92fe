// §2.3 tree quality: the layer-peeling greedy vs the exact Steiner optimum.
//
// The paper reports the prototype "performs within 1.4% of the Steiner
// optimum" and that the walk-through example needs just one switch more than
// the symmetric optimum.  We measure the greedy/exact cost ratio over random
// asymmetric leaf-spine instances at increasing failure rates (exact via
// Dreyfus-Wagner, so destination counts stay small), plus the symmetric
// sanity check where greedy must be exactly optimal.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/common/stats.h"
#include "src/harness/table.h"
#include "src/steiner/exact.h"
#include "src/steiner/layer_peel.h"
#include "src/steiner/symmetric.h"
#include "src/topology/failures.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Tree quality — greedy vs exact Steiner optimum", "§2.3");

  const int trials = bench::samples_override(200, 25);

  Table table({"failure rate", "instances", "mean ratio", "p99 ratio",
               "max ratio", "% exactly optimal"});
  CsvWriter csv("tree_quality.csv",
                {"failure_pct", "mean_ratio", "p99_ratio", "max_ratio",
                 "pct_optimal"});

  for (double pct : {0.0, 2.0, 5.0, 10.0, 20.0}) {
    Samples ratios;
    int optimal_hits = 0;
    for (int t = 0; t < trials; ++t) {
      LeafSpine ls = build_leaf_spine(LeafSpineConfig{8, 16, 1, 0});
      Rng rng(static_cast<std::uint64_t>(pct * 100) + static_cast<std::uint64_t>(t));
      if (pct > 0) {
        fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo),
                             pct / 100.0, rng);
      }
      std::vector<NodeId> pool = ls.hosts;
      rng.shuffle(pool);
      const NodeId source = pool[0];
      std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 8);
      if (!all_reachable(ls.topo, source, dests)) continue;
      const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
      const int exact = exact_steiner_cost(ls.topo, source, dests);
      const double ratio =
          static_cast<double>(greedy.link_count()) / static_cast<double>(exact);
      ratios.add(ratio);
      if (greedy.link_count() == static_cast<std::size_t>(exact)) ++optimal_hits;
    }
    table.add_row({cell("%.0f%%", pct), cell("%zu", ratios.count()),
                   cell("%.4f", ratios.mean()), cell("%.4f", ratios.p99()),
                   cell("%.4f", ratios.max()),
                   cell("%.0f%%", 100.0 * optimal_hits /
                                      std::max<std::size_t>(1, ratios.count()))});
    csv.row_values({pct, ratios.mean(), ratios.p99(), ratios.max(),
                    100.0 * optimal_hits / std::max<std::size_t>(1, ratios.count())});
  }
  table.print(std::cout);

  std::printf("\npaper: greedy within ~1.4%% of the Steiner optimum; mean "
              "ratio above should sit close to 1.0x even at 10-20%% failures.\n"
              "CSV -> tree_quality.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("tree_quality", run_bench); }
