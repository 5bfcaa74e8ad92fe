// Figure 6: PEEL is faster than Orca, Tree, and Ring across Broadcast scales
// (32..1024 GPUs) with a fixed 64 MB message; at 256 GPUs the paper reports
// PEEL ~5x faster than Ring, ~13x than Tree, ~2.5x than Orca.
//
// Runs as one scheme x scale grid on the parallel sweep engine; set
// PEEL_BENCH_THREADS to pin the worker count (output is identical at any).
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Figure 6 — CCT vs Broadcast scale", "Fig. 6 (mean & p99)");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const Bytes message = 64 * kMiB;

  SweepSpec spec;
  spec.schemes = {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                  Scheme::Orca, Scheme::Peel, Scheme::PeelProgCores};
  spec.group_sizes = bench::quick_mode()
                         ? std::vector<int>{32, 128}
                         : std::vector<int>{32, 64, 128, 256, 512, 1024};
  spec.base.message_bytes = message;
  spec.base.collectives = bench::samples_for(message);
  spec.base.fragmentation = 0.0;  // §3.4 treats fragmentation separately
  spec.base.sim = bench::scaled_sim(message, 6);
  spec.base.seed = 666;
  const SweepResults results = run_sweep(fabric, spec);

  CsvWriter csv("fig6_cct_vs_scale.csv",
                {"gpus", "scheme", "mean_cct_s", "p99_cct_s"});

  for (std::size_t g = 0; g < spec.group_sizes.size(); ++g) {
    Table table({"scheme", "mean CCT", "p99 CCT", "speedup vs PEEL"});
    std::printf("--- %d GPUs, 64 MiB messages, 30%% load ---\n",
                spec.group_sizes[g]);
    double peel_mean = 0.0;
    std::vector<std::tuple<const char*, double, double>> rows;
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s, g).result;
      if (spec.schemes[s] == Scheme::Peel) peel_mean = r.cct_seconds.mean();
      rows.emplace_back(to_string(spec.schemes[s]), r.cct_seconds.mean(),
                        r.cct_seconds.p99());
      csv.row({std::to_string(spec.group_sizes[g]), to_string(spec.schemes[s]),
               cell("%.6f", r.cct_seconds.mean()),
               cell("%.6f", r.cct_seconds.p99())});
    }
    for (const auto& [name, mean, p99] : rows) {
      table.add_row({name, format_seconds(mean), format_seconds(p99),
                     cell("%.1fx", mean / std::max(1e-12, peel_mean))});
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("paper: PEEL stays closest to Optimal across the whole range "
              "(scale independence).\nCSV -> fig6_cct_vs_scale.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("fig6_cct_vs_scale", run_bench); }
