// §1's "microsecond-sensitive RDMA fabrics": the latency regime.
//
// Tiny collectives (barriers, small parameter syncs) are dominated by setup
// latency and hop counts, not bandwidth.  PEEL's deploy-once data plane means
// zero start-up cost — the property that rules out controller-driven schemes
// for this regime ("multi-millisecond setup delays ... none palatable", §3).
//
// One scheme x size grid on the parallel sweep engine.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Small-message latency — the microsecond regime",
                "§1/§3 (setup latency intolerable on RDMA fabrics)");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);

  SweepSpec spec;
  spec.schemes = {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                  Scheme::Orca, Scheme::Peel};
  spec.message_sizes = bench::quick_mode()
                           ? std::vector<Bytes>{64 * kKiB}
                           : std::vector<Bytes>{64 * kKiB, 256 * kKiB, 1 * kMiB};
  spec.base.group_size = 64;
  spec.base.collectives = bench::samples_override(40, 8);
  spec.base.offered_load = 0.05;  // latency regime: no queueing to hide behind
  spec.base.seed = 1515;
  const SweepResults results = run_sweep(fabric, spec);

  CsvWriter csv("small_message_latency.csv",
                {"message_kib", "scheme", "mean_cct_us", "p99_cct_us"});

  for (std::size_t m = 0; m < spec.message_sizes.size(); ++m) {
    const Bytes size = spec.message_sizes[m];
    Table table({"scheme", "mean CCT", "p99 CCT"});
    std::printf("--- %lld KiB broadcast, 64 GPUs, idle-ish fabric (5%% load) ---\n",
                static_cast<long long>(size / kKiB));
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s, 0, m).result;
      table.add_row({to_string(spec.schemes[s]),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99())});
      csv.row({std::to_string(size / kKiB), to_string(spec.schemes[s]),
               cell("%.2f", r.cct_seconds.mean() * 1e6),
               cell("%.2f", r.cct_seconds.p99() * 1e6)});
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("PEEL's zero-setup static prefixes keep tiny collectives at "
              "wire latency; Orca's ~10 ms controller dwarfs them by orders "
              "of magnitude.\nCSV -> small_message_latency.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("small_message_latency", run_bench); }
