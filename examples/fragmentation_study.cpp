// fragmentation_study: exploring the paper's §3.4 open question.
//
// PEEL's prefix aggregation is most efficient when jobs are bin-packed.  As
// the scheduler fragments placements, the destination rack set stops forming
// complete trie sub-trees: the exact cover needs more packets (more up-path
// copies), while a bounded cover trades packets for over-covered racks.
// This example sweeps the fragmentation level and prints both sides of that
// trade-off, plus the resulting CCT.
//
// Usage: fragmentation_study [group_gpus]
#include <cstdio>
#include <iostream>

#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/prefix/plan.h"

using namespace peel;

namespace {

int run_example(int argc, char** argv) {
  const int group =
      argc > 1 ? parse_number<int>(argv[1], "group_gpus", 1) : 128;

  FatTreeConfig config;
  config.k = 8;
  config.hosts_per_tor = 4;
  config.gpus_per_host = 8;
  const FatTree ft = build_fat_tree(config);
  const Fabric fabric = Fabric::of(ft);

  std::printf("PEEL under placement fragmentation: %d-GPU groups on a "
              "1024-GPU fat-tree\n\n", group);

  Table table({"fragmentation", "exact packets", "bounded(2/pod) packets",
               "over-covered racks", "PEEL CCT (8 MiB)"});

  for (double frag : {0.0, 0.05, 0.10, 0.20, 0.30, 0.50}) {
    Rng rng(99);
    PlacementOptions placement;
    placement.group_size = group;
    placement.fragmentation = frag;

    // Average over a few placements.
    double exact_packets = 0, bounded_packets = 0, redundant = 0, cct = 0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      const GroupSelection sel = select_local_group(fabric, placement, rng);
      const PeelPlan exact = build_peel_plan(ft, sel.source, sel.destinations);
      const PeelPlan bounded = build_peel_plan(ft, sel.source, sel.destinations,
                                               PeelCoverOptions::compact());
      exact_packets += static_cast<double>(exact.packets.size());
      bounded_packets += static_cast<double>(bounded.packets.size());
      redundant += static_cast<double>(bounded.redundant_rack_copies());
      SingleRunOptions run;
      run.scheme = Scheme::Peel;
      run.group = sel;
      run.message_bytes = 8 * kMiB;
      cct += run_single_broadcast(fabric, run).cct_seconds;
    }
    table.add_row({cell("%.0f%%", frag * 100),
                   cell("%.1f", exact_packets / trials),
                   cell("%.1f", bounded_packets / trials),
                   cell("%.1f", redundant / trials),
                   format_seconds(cct / trials)});
  }
  table.print(std::cout);
  std::printf("\nTakeaway: fragmentation inflates the exact cover; a bounded "
              "cover caps packet count at the price of redundant rack "
              "deliveries (the paper's adaptive-prefix-packing frontier).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("fragmentation_study",
                             [&] { return run_example(argc, argv); });
}
