// §3.4 open question — incremental deployment: "If only a subset of switches
// can be reprogrammed, which tier yields the highest return on investment?"
//
// The ladder below orders the deployment states an operator can be in, from
// no multicast at all to a fully oracle-programmed fabric, and measures what
// each step buys on the same workload:
//   1. Ring            — unicast only, zero switch support
//   2. PEEL (static)   — pre-install k-1 prefix rules everywhere, no
//                        controller, no programmability
//   3. PEEL+ProgCores  — add programmable cores + a background controller
//   4. Orca            — per-group SDN rules on demand (full programmability,
//                        pays flow-setup latency)
//   5. Optimal         — oracle: per-group state, no setup latency
//
// The five rungs run concurrently as a one-axis sweep (scheme axis).
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Deployment ladder — what each upgrade buys",
                "§3.4 open question (incremental deployment)");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const Bytes message = 64 * kMiB;

  const std::vector<const char*> labels = {
      "1. no multicast (Ring)", "2. static prefixes (PEEL)",
      "3. + programmable cores", "4. per-group SDN (Orca)",
      "5. oracle (Optimal)"};

  SweepSpec spec;
  spec.schemes = {Scheme::Ring, Scheme::Peel, Scheme::PeelProgCores,
                  Scheme::Orca, Scheme::Optimal};
  spec.base.group_size = 256;
  spec.base.message_bytes = message;
  spec.base.collectives = bench::samples_override(16, 4);
  spec.base.fragmentation = 0.02;  // realistic: slightly imperfect placement
  spec.base.sim = bench::scaled_sim(message, 13);
  spec.base.seed = 1313;
  const SweepResults results = run_sweep(fabric, spec);

  Table table({"deployment state", "mean CCT", "p99 CCT", "fabric traffic"});
  CsvWriter csv("deployment_ladder.csv",
                {"step", "scheme", "mean_cct_s", "p99_cct_s", "fabric_bytes"});

  for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
    const ScenarioResult& r = results.at(s).result;
    table.add_row({labels[s], format_seconds(r.cct_seconds.mean()),
                   format_seconds(r.cct_seconds.p99()),
                   format_bytes(static_cast<double>(r.fabric_bytes))});
    csv.row({labels[s], to_string(spec.schemes[s]),
             cell("%.6f", r.cct_seconds.mean()), cell("%.6f", r.cct_seconds.p99()),
             std::to_string(r.fabric_bytes)});
  }
  table.print(std::cout);
  std::printf("\nTakeaway: the static-prefix step (zero programmability, zero "
              "controller) captures most of the win; per-group SDN adds "
              "latency it never earns back at these message sizes.\n"
              "CSV -> deployment_ladder.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("deployment_ladder", run_bench); }
