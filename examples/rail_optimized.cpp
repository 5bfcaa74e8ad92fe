// rail_optimized: PEEL on a rail-optimized GPU fabric (§2.1 future work).
//
// Rail designs (e.g. Alibaba HPN [28]) give every GPU its own NIC and keep
// GPU r of every server on rail switch r; traffic changes rails only over
// in-server NVLink.  Broadcast needs exactly one fabric copy per member
// server — and PEEL's power-of-two prefixes port unchanged: the rail switch
// pre-installs k-1 server-block rules, the rail-aligned spine pre-installs
// segment-block rules.
//
// Usage: rail_optimized [servers_per_segment] [segments]
#include <cstdio>

#include "src/collectives/rail_trees.h"
#include "src/common/stats.h"
#include "src/harness/bench_env.h"

using namespace peel;

namespace {

int run_example(int argc, char** argv) {
  RailConfig config;
  config.rails = 8;
  config.hosts_per_segment =
      argc > 1 ? parse_number<int>(argv[1], "servers_per_segment", 1) : 16;
  config.segments = argc > 2 ? parse_number<int>(argv[2], "segments", 1) : 2;
  const RailFabric rf = build_rail_fabric(config);
  std::printf("rail fabric: %d rails x %d servers x %d segment(s) = %zu GPUs\n",
              config.rails, config.hosts_per_segment, config.segments,
              rf.gpus.size());
  std::printf("rail-switch state: %zu static prefix rules (never touched)\n\n",
              rail_switch_rule_count(config));

  // A job on servers 2..9 of segment 0 plus all of segment 1.
  const NodeId source = rf.gpu_at(2, 0);
  std::vector<NodeId> dests;
  for (int h = 2; h < 10; ++h) {
    for (int r = 0; r < config.rails; ++r) {
      if (rf.gpu_at(h, r) != source) dests.push_back(rf.gpu_at(h, r));
    }
  }
  if (config.segments > 1) {
    for (int h = config.hosts_per_segment;
         h < config.hosts_per_segment + 8 && h < static_cast<int>(rf.hosts.size());
         ++h) {
      for (int r = 0; r < config.rails; ++r) dests.push_back(rf.gpu_at(h, r));
    }
  }
  std::printf("group: %zu GPUs, source %s (rail %d)\n", dests.size() + 1,
              rf.topo.name(source).c_str(), rf.rail_of(source));

  const auto peel_exact = rail_peel_streams(rf, source, dests);
  const auto peel_compact =
      rail_peel_streams(rf, source, dests, PeelCoverOptions::compact());
  std::printf("PEEL exact cover: %zu packet class(es); compact (over-covering) "
              "cover: %zu; the broadcast never leaves rail %d in the fabric\n\n",
              peel_exact.size(), peel_compact.size(), rf.rail_of(source));

  SimConfig sim;
  const std::vector<PeelStream> optimal{
      PeelStream{rail_optimal_tree(rf, source, dests, 0), dests}};
  std::printf("64 MiB broadcast:\n");
  struct Row {
    const char* name;
    const std::vector<PeelStream>* streams;
  };
  for (const Row& row : {Row{"Optimal", &optimal}, Row{"PEEL exact", &peel_exact},
                         Row{"PEEL compact", &peel_compact}}) {
    const auto r = simulate_rail_broadcast(rf, *row.streams, 64 * kMiB, 8, sim);
    std::printf("  %-13s CCT %-12s fabric %-12s nvlink %s\n", row.name,
                format_seconds(r.cct_seconds).c_str(),
                format_bytes(static_cast<double>(r.fabric_bytes)).c_str(),
                format_bytes(static_cast<double>(r.nvlink_bytes)).c_str());
  }
  std::printf("\nEach member server receives exactly one fabric copy over its "
              "rail NIC; cross-rail fan-out rides NVLink at 900 GB/s.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("rail_optimized",
                             [&] { return run_example(argc, argv); });
}
