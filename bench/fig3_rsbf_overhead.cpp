// Figure 3: RSBF's Bloom-filter header exceeds one full MTU once k > 32;
// even at a generous false-positive ratio, bandwidth overhead surpasses 100%.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/baselines/rsbf.h"
#include "src/harness/table.h"
#include "src/prefix/prefix.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Figure 3 — RSBF per-packet overhead", "Fig. 3");

  const int ks[] = {4, 8, 16, 32, 64};
  const double fprs[] = {0.01, 0.05, 0.10, 0.15, 0.20};

  Table table({"k", "FPR=1%", "FPR=5%", "FPR=10%", "FPR=15%", "FPR=20%",
               "PEEL header"});
  CsvWriter csv("fig3_rsbf_overhead.csv",
                {"k", "fpr", "rsbf_header_bytes", "peel_header_bytes"});

  for (int k : ks) {
    std::vector<std::string> row{cell("%d", k)};
    for (double f : fprs) {
      const double bytes = rsbf_header_bytes(k, f);
      row.push_back(cell("%.0f B%s", bytes, bytes > 1500 ? " (>MTU)" : ""));
      csv.row({std::to_string(k), cell("%.2f", f), cell("%.0f", bytes),
               cell("%d", (fat_tree_header_bits(k) + 7) / 8)});
    }
    row.push_back(cell("%d B", (fat_tree_header_bits(k) + 7) / 8));
    table.add_row(row);
  }
  table.print(std::cout);

  std::printf("\npaper: RSBF passes the 1500 B MTU beyond k=32 at every FPR; "
              "PEEL's prefix tuple stays under 8 B.  At k=64/FPR=20%% the "
              "bandwidth overhead is %.0f%% of an MTU payload.\n",
              100.0 * rsbf_bandwidth_overhead(64, 0.20));
  std::printf("CSV -> fig3_rsbf_overhead.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("fig3_rsbf_overhead", run_bench); }
