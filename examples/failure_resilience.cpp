// failure_resilience: multicast on a damaged fabric (§2.2–2.3).
//
// Random link failures make the Clos asymmetric, where optimal-tree
// construction is NP-hard.  This example fails a fraction of spine–leaf
// links, builds the layer-peeling greedy tree, shows its quality against the
// exact Steiner optimum (small instance), and compares broadcast CCTs of
// Ring, Binary Tree, and PEEL on the damaged fabric — Figure 7 in miniature.
//
// Usage: failure_resilience [failure_percent]
#include <cstdio>

#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/steiner/exact.h"
#include "src/steiner/layer_peel.h"
#include "src/topology/failures.h"

using namespace peel;

namespace {

int run_example(int argc, char** argv) {
  const double failure_pct =
      argc > 1 ? parse_number<double>(argv[1], "failure_percent", 0.0, 100.0)
               : 8.0;

  LeafSpineConfig config;  // paper's Figure-7 fabric
  config.spines = 16;
  config.leaves = 48;
  config.hosts_per_leaf = 2;
  config.gpus_per_host = 8;
  LeafSpine ls = build_leaf_spine(config);

  Rng rng(11);
  const auto candidates = duplex_spine_leaf_links(ls.topo);
  const std::size_t failed =
      fail_random_fraction(ls.topo, candidates, failure_pct / 100.0, rng);
  std::printf("leaf-spine 16x48, %zu/%zu spine-leaf links failed (%.0f%%)\n",
              failed, candidates.size(), failure_pct);

  // A 64-GPU job.
  const Fabric fabric = Fabric::of(ls);
  PlacementOptions placement;
  placement.group_size = 64;
  GroupSelection group = select_local_group(fabric, placement, rng);
  while (!all_reachable(ls.topo, group.source, group.destinations)) {
    group = select_local_group(fabric, placement, rng);
  }

  // Layer-peeling greedy tree (§2.3) on the asymmetric fabric.
  const MulticastTree greedy =
      layer_peel_tree(ls.topo, group.source, group.destinations);
  const auto check = greedy.validate(ls.topo);
  std::printf("\ngreedy layer-peeling tree: %zu links, %zu switches, valid=%s\n",
              greedy.link_count(), greedy.switch_count(ls.topo),
              check.ok ? "yes" : check.error.c_str());

  // Quality vs the exact optimum on a small sub-instance (Dreyfus-Wagner is
  // exponential in terminals, so sample 6 destinations).
  std::vector<NodeId> sample(group.destinations.begin(),
                             group.destinations.begin() + 6);
  const MulticastTree small_greedy = layer_peel_tree(ls.topo, group.source, sample);
  const int exact = exact_steiner_cost(ls.topo, group.source, sample);
  std::printf("6-destination sub-instance: greedy %zu links vs exact optimum %d "
              "(%.1f%% above)\n",
              small_greedy.link_count(), exact,
              100.0 * (static_cast<double>(small_greedy.link_count()) / exact - 1.0));

  // Broadcast CCTs on the damaged fabric (8 MiB, as in Figure 7).
  SimConfig sim;
  std::printf("\n8 MiB broadcast to 64 GPUs on the damaged fabric:\n");
  for (Scheme scheme : {Scheme::BinaryTree, Scheme::Ring, Scheme::Peel}) {
    SingleRunOptions run;
    run.scheme = scheme;
    run.group = group;
    run.message_bytes = 8 * kMiB;
    run.sim = sim;
    run.runner.peel_asymmetric = (scheme == Scheme::Peel);
    const SingleResult r = run_single_broadcast(fabric, run);
    std::printf("  %-6s  CCT %-12s  fabric bytes %s\n", to_string(scheme),
                format_seconds(r.cct_seconds).c_str(),
                format_bytes(static_cast<double>(r.fabric_bytes)).c_str());
  }

  // A link dying *mid-broadcast*: segments on the wire are lost, the
  // collective stalls, and a recovery pass re-delivers the missing chunks
  // over freshly routed unicasts.
  std::printf("\nmid-run failure drill (another spine-leaf link dies during a "
              "PEEL broadcast):\n");
  {
    EventQueue queue;
    Network net(ls.topo, sim, queue);
    RunnerOptions opts;
    opts.peel_asymmetric = true;
    CollectiveRunner runner(fabric, net, queue, Rng(21), opts);
    BroadcastRequest req;
    req.id = 1;
    req.source = group.source;
    req.destinations = group.destinations;
    req.message_bytes = 8 * kMiB;
    runner.submit(Scheme::Peel, req);

    // Kill a spine->leaf link the collective's own tree depends on (one
    // whose leaf actually fans out to member hosts) 150 us in.
    LinkId doomed = kInvalidLink;
    for (LinkId l : greedy.links()) {
      const Link& lk = ls.topo.link(l);
      if (ls.topo.kind(lk.src) == NodeKind::Core &&
          ls.topo.kind(lk.dst) == NodeKind::Tor &&
          !greedy.out_links_of(lk.dst).empty()) {
        doomed = l;
        break;
      }
    }
    std::size_t rescheduled = 0;
    queue.at(150 * kMicrosecond, [&] {
      ls.topo.fail_duplex(doomed);
      net.on_duplex_failed(doomed);
    });
    // Let the intact subtrees drain first, then repair only what is still
    // missing — recovering too eagerly would re-unicast chunks the original
    // streams were about to deliver anyway.
    queue.at(5 * kMillisecond, [&] {
      runner.on_topology_delta(TopologyDelta::link_down(doomed));
      rescheduled = runner.recover_collective(1);
    });
    queue.run();
    std::printf("  segments lost on the wire: %llu\n",
                static_cast<unsigned long long>(net.segments_lost()));
    std::printf("  chunk deliveries re-sent:  %zu\n", rescheduled);
    std::printf("  collective finished:       %s (CCT %s)\n",
                runner.records().front().finished ? "yes" : "NO",
                format_seconds(runner.records().front().cct_seconds()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("failure_resilience",
                             [&] { return run_example(argc, argv); });
}
