// Extension — AllReduce, training's dominant collective.
//
// Two stories in one table. Host-side multicast is an honest negative
// result: AllReduce's heavy half is the many-to-one reduction, which is not
// a one-to-many primitive, so host-side PEEL (tree-reduce + multicast
// broadcast) only accelerates the broadcast half and Ring allreduce
// (reduce-scatter + all-gather, 2(n-1)/n of the buffer per NIC) keeps
// winning on large buffers — exactly why NCCL rings them. The InNet rows
// close that gap from the other side: switches combine contributions up the
// exact mirror of the prefix multicast tree, so every NIC moves the buffer
// once up and once down — beating Ring's 2(n-1)/n and turning the negative
// result around without leaving the PEEL rule table.
//
// One scheme x buffer-size grid on the parallel sweep engine.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Extension — AllReduce under every scheme",
                "beyond the paper: tree-reduce + multicast broadcast vs ring");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);

  SweepSpec spec;
  spec.schemes = {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                  Scheme::Peel, Scheme::InNet};
  spec.message_sizes = bench::quick_mode()
                           ? std::vector<Bytes>{4 * kMiB}
                           : std::vector<Bytes>{1 * kMiB, 16 * kMiB, 128 * kMiB};
  spec.base.collective = CollectiveKind::AllReduce;
  spec.base.group_size = 64;
  spec.base.collectives = bench::samples_override(12, 4);
  spec.base.seed = 1414;
  spec.customize = [](const SweepPoint& p, ScenarioConfig& c) {
    c.sim = bench::scaled_sim(p.message_bytes, 14);
  };
  const SweepResults results = run_sweep(fabric, spec);

  CsvWriter csv("allreduce_comparison.csv",
                {"buffer_mib", "scheme", "mean_cct_s", "p99_cct_s"});

  for (std::size_t m = 0; m < spec.message_sizes.size(); ++m) {
    const Bytes buffer = spec.message_sizes[m];
    Table table({"scheme", "mean CCT", "p99 CCT"});
    std::printf("--- AllReduce, 64 GPUs, %lld MiB per-rank buffers, 30%% load ---\n",
                static_cast<long long>(buffer / kMiB));
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s, 0, m).result;
      table.add_row({to_string(spec.schemes[s]),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99())});
      csv.row({std::to_string(buffer / kMiB), to_string(spec.schemes[s]),
               cell("%.6f", r.cct_seconds.mean()),
               cell("%.6f", r.cct_seconds.p99())});
      if (r.unfinished) {
        std::printf("WARNING: %zu unfinished under %s\n", r.unfinished,
                    to_string(spec.schemes[s]));
      }
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("takeaway: host-side multicast accelerates the one-to-many "
              "half only, so ring beats it on large buffers; in-network "
              "combining (innet) moves each buffer once per NIC in each "
              "direction and overtakes ring across the grid.\n"
              "CSV -> allreduce_comparison.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("allreduce_comparison", run_bench); }
