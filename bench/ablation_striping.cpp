// §2.3 open question — "multicast vs multipath": a single Steiner tree
// funnels traffic onto one set of links, while load balancers stripe bytes
// across many paths.  This ablation builds 1/2/4 near-optimal trees per
// collective (distinct core choices) and round-robins chunks across them,
// measuring the CCT effect under contention.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Ablation — striping chunks over multiple trees",
                "§2.3 open question (multicast vs multipath)");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const Bytes message = 64 * kMiB;

  Table table({"scheme", "trees", "mean CCT", "p99 CCT", "ECN marks"});
  CsvWriter csv("ablation_striping.csv",
                {"scheme", "stripes", "mean_cct_s", "p99_cct_s", "ecn_marks"});

  for (Scheme scheme : {Scheme::Optimal, Scheme::Peel}) {
    for (int stripes : {1, 2, 4}) {
      ScenarioConfig sc;
      sc.scheme = scheme;
      sc.group_size = 256;
      sc.message_bytes = message;
      sc.collectives = bench::samples_override(24, 6);
      sc.offered_load = 0.6;  // contention is what striping is for
      sc.sim = bench::scaled_sim(message, 10);
      sc.runner.stripe_trees = stripes;
      sc.seed = 1010;
      const ScenarioResult r = run_scenario(fabric, sc);
      table.add_row({to_string(scheme), cell("%d", stripes),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99()),
                     cell("%llu", static_cast<unsigned long long>(r.ecn_marks))});
      csv.row({to_string(scheme), std::to_string(stripes),
               cell("%.6f", r.cct_seconds.mean()),
               cell("%.6f", r.cct_seconds.p99()),
               std::to_string(r.ecn_marks)});
    }
  }
  table.print(std::cout);
  std::printf("\nStriping spreads a collective's bytes over distinct cores; "
              "whether it helps depends on how much synchronized queue "
              "build-up a single tree causes under load.\n"
              "CSV -> ablation_striping.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("ablation_striping", run_bench); }
