// Extension beyond the paper's Broadcast evaluation: AllGather, the other
// bandwidth-dominant collective its motivation cites [23].  Ring AllGather
// is bandwidth-optimal among unicast schedules, so this is the hardest
// baseline for multicast to beat — the win comes from latency (concurrent
// per-shard multicasts vs n-1 serial ring steps), not raw bytes.
//
// One scheme x scale grid on the parallel sweep engine; the sim segment is
// scaled to the per-shard size (total / group) via the customize hook.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Extension — AllGather under every scheme",
                "beyond the paper: composing one multicast per shard");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const Bytes total = 64 * kMiB;

  SweepSpec spec;
  spec.schemes = {Scheme::Ring, Scheme::Optimal, Scheme::Orca, Scheme::Peel};
  spec.group_sizes =
      bench::quick_mode() ? std::vector<int>{16} : std::vector<int>{16, 64, 256};
  spec.base.collective = CollectiveKind::AllGather;
  spec.base.message_bytes = total;
  spec.base.collectives = bench::samples_override(12, 4);
  spec.base.seed = 1212;
  spec.customize = [total](const SweepPoint& p, ScenarioConfig& c) {
    c.sim = bench::scaled_sim(total / p.group_size, 12);
  };
  const SweepResults results = run_sweep(fabric, spec);

  CsvWriter csv("allgather_comparison.csv",
                {"gpus", "scheme", "mean_cct_s", "p99_cct_s"});

  for (std::size_t g = 0; g < spec.group_sizes.size(); ++g) {
    Table table({"scheme", "mean CCT", "p99 CCT"});
    std::printf("--- AllGather, %d GPUs, %lld MiB gathered, 30%% load ---\n",
                spec.group_sizes[g], static_cast<long long>(total / kMiB));
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s, g).result;
      table.add_row({to_string(spec.schemes[s]),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99())});
      csv.row({std::to_string(spec.group_sizes[g]), to_string(spec.schemes[s]),
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
  std::printf("CSV -> allgather_comparison.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("allgather_comparison", run_bench); }
