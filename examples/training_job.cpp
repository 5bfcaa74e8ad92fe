// training_job: a multi-tenant AI-training scenario.
//
// Thousands of training steps mean a steady Poisson stream of Broadcast
// collectives (parameter redistribution) sharing one fabric.  This example
// runs the same workload under every scheme the paper evaluates and prints
// mean/p99 CCT plus total fabric traffic — the trade-off Figure 5 plots.
//
// Usage: training_job [collectives] [message_MiB] [group_gpus]
#include <cstdio>
#include <iostream>

#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

using namespace peel;

namespace {

int run_example(int argc, char** argv) {
  const int collectives =
      argc > 1 ? parse_number<int>(argv[1], "collectives", 1) : 20;
  const Bytes message =
      (argc > 2 ? parse_number<Bytes>(argv[2], "message_MiB", 1) : 16) * kMiB;
  const int group =
      argc > 3 ? parse_number<int>(argv[3], "group_gpus", 1) : 64;

  FatTreeConfig config;
  config.k = 8;
  config.hosts_per_tor = 4;
  config.gpus_per_host = 8;
  const FatTree ft = build_fat_tree(config);
  const Fabric fabric = Fabric::of(ft);

  std::printf("workload: %d broadcasts of %lld MiB to %d GPUs at 30%% load "
              "on a 1024-GPU 8-ary fat-tree\n\n",
              collectives, static_cast<long long>(message / kMiB), group);

  Table table({"scheme", "mean CCT", "p99 CCT", "fabric traffic", "events"});
  for (Scheme scheme : {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                        Scheme::Orca, Scheme::Peel, Scheme::PeelProgCores}) {
    ScenarioConfig sc;
    sc.scheme = scheme;
    sc.group_size = group;
    sc.message_bytes = message;
    sc.collectives = collectives;
    sc.seed = 1234;
    const ScenarioResult r = run_scenario(fabric, sc);
    table.add_row({to_string(scheme), format_seconds(r.cct_seconds.mean()),
                   format_seconds(r.cct_seconds.p99()),
                   format_bytes(static_cast<double>(r.fabric_bytes)),
                   cell("%llu", static_cast<unsigned long long>(r.events))});
    if (r.unfinished > 0) {
      std::printf("WARNING: %zu collectives did not finish under %s\n",
                  r.unfinished, to_string(scheme));
    }
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("training_job",
                             [&] { return run_example(argc, argv); });
}
