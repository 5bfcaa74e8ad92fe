// §3.3/§3.4 ablation — cover-selection policy under placement fragmentation.
//
// Exact covers never over-cover but emit one packet per prefix class, so a
// fragmented placement multiplies the source's up-path copies.  Bounded and
// compact covers cap the packet count by sweeping up non-member racks/pods,
// which wastes down-tree bandwidth instead.  This ablation quantifies the
// trade-off the paper's "adaptive prefix packing" frontier is about.
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/prefix/plan.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Ablation — prefix cover modes under fragmentation",
                "§3.3 bounded covers, §3.4 resource fragmentation");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const Bytes message = 8 * kMiB;
  const int trials = bench::samples_override(10, 3);

  struct Mode {
    const char* name;
    PeelCoverOptions cover;
  };
  const Mode modes[] = {
      {"exact", PeelCoverOptions{}},
      {"bounded(2/pod)", PeelCoverOptions{2, 2}},
      {"compact", PeelCoverOptions::compact()},
  };

  Table table({"fragmentation", "mode", "packets", "over-covered racks",
               "mean CCT", "fabric bytes"});
  CsvWriter csv("ablation_cover_modes.csv",
                {"fragmentation", "mode", "packets", "redundant_racks",
                 "mean_cct_s", "fabric_bytes"});

  for (double frag : {0.0, 0.05, 0.15}) {
    for (const Mode& mode : modes) {
      Rng rng(2020);
      PlacementOptions placement;
      placement.group_size = 128;
      placement.fragmentation = frag;
      placement.buddy_aligned = true;

      double packets = 0, redundant = 0, cct = 0, bytes = 0;
      for (int t = 0; t < trials; ++t) {
        const GroupSelection sel = select_local_group(fabric, placement, rng);
        const PeelPlan plan =
            build_peel_plan(ft, sel.source, sel.destinations, mode.cover);
        packets += static_cast<double>(plan.packets.size());
        redundant += static_cast<double>(plan.redundant_rack_copies());
        SingleRunOptions run;
        run.scheme = Scheme::Peel;
        run.group = sel;
        run.message_bytes = message;
        run.sim = bench::scaled_sim(message, 11);
        run.runner.peel_cover = mode.cover;
        const SingleResult r = run_single_broadcast(fabric, run);
        cct += r.cct_seconds;
        bytes += static_cast<double>(r.fabric_bytes);
      }
      table.add_row({cell("%.0f%%", frag * 100), mode.name,
                     cell("%.1f", packets / trials), cell("%.1f", redundant / trials),
                     format_seconds(cct / trials), format_bytes(bytes / trials)});
      csv.row({cell("%.2f", frag), mode.name, cell("%.2f", packets / trials),
               cell("%.2f", redundant / trials), cell("%.6f", cct / trials),
               cell("%.0f", bytes / trials)});
    }
  }
  table.print(std::cout);
  std::printf("\nExact covers pay at the source NIC (packets x message); "
              "compact covers pay on parallel down-links (redundant racks). "
              "For CCT the compact side of the trade usually wins.\n"
              "CSV -> ablation_cover_modes.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("ablation_cover_modes", run_bench); }
