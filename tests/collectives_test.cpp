#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/collectives/runner.h"
#include "src/harness/experiment.h"
#include "src/topology/failures.h"

namespace peel {
namespace {

struct SmallFatTree : ::testing::Test {
  FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});  // 64 GPUs
  Fabric fabric = Fabric::of(ft);

  GroupSelection group(std::size_t first, std::size_t count) const {
    GroupSelection g;
    g.source = ft.gpus[first];
    for (std::size_t i = first + 1; i < first + count; ++i) {
      g.destinations.push_back(ft.gpus[i]);
    }
    return g;
  }
};

SingleResult run(const Fabric& fabric, Scheme scheme, const GroupSelection& g,
                 Bytes bytes, RunnerOptions opts = {}) {
  SingleRunOptions options;
  options.scheme = scheme;
  options.group = g;
  options.message_bytes = bytes;
  options.runner = opts;
  return run_single_broadcast(fabric, options);
}

TEST_F(SmallFatTree, EverySchemeCompletes) {
  const GroupSelection g = group(0, 24);  // spans racks and pods
  for (Scheme scheme : {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                        Scheme::Orca, Scheme::Peel, Scheme::PeelProgCores}) {
    const SingleResult r = run(fabric, scheme, g, 4 * kMiB);
    EXPECT_GT(r.cct_seconds, 0.0) << to_string(scheme);
  }
}

TEST_F(SmallFatTree, OptimalUsesLeastFabricBytes) {
  const GroupSelection g = group(0, 32);
  const auto ring = run(fabric, Scheme::Ring, g, 4 * kMiB);
  const auto tree = run(fabric, Scheme::BinaryTree, g, 4 * kMiB);
  const auto optimal = run(fabric, Scheme::Optimal, g, 4 * kMiB);
  const auto peel = run(fabric, Scheme::Peel, g, 4 * kMiB);
  EXPECT_LT(optimal.fabric_bytes, ring.fabric_bytes);
  EXPECT_LT(optimal.fabric_bytes, tree.fabric_bytes);
  // PEEL pays at most a few extra up-path copies, far less than unicast rings.
  EXPECT_LT(peel.fabric_bytes, ring.fabric_bytes);
  EXPECT_GE(peel.fabric_bytes, optimal.fabric_bytes);
}

TEST(PaperFatTree, MulticastFasterThanUnicastSchedules) {
  // The paper's 8-ary fabric: a 64-GPU bin-packed group fits one pod, so
  // PEEL needs a single prefix packet and multicast's advantage is clean.
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  GroupSelection g;
  g.source = ft.gpus[0];
  for (std::size_t i = 1; i < 64; ++i) g.destinations.push_back(ft.gpus[i]);

  const auto ring = run(fabric, Scheme::Ring, g, 8 * kMiB);
  const auto tree = run(fabric, Scheme::BinaryTree, g, 8 * kMiB);
  const auto optimal = run(fabric, Scheme::Optimal, g, 8 * kMiB);
  const auto peel = run(fabric, Scheme::Peel, g, 8 * kMiB);
  EXPECT_LT(optimal.cct_seconds, ring.cct_seconds);
  EXPECT_LT(optimal.cct_seconds, tree.cct_seconds);
  EXPECT_LT(peel.cct_seconds, ring.cct_seconds);
  EXPECT_LT(peel.cct_seconds, tree.cct_seconds);
}

TEST_F(SmallFatTree, PeelCloseToOptimal) {
  const GroupSelection g = group(0, 32);
  const auto optimal = run(fabric, Scheme::Optimal, g, 8 * kMiB);
  const auto peel = run(fabric, Scheme::Peel, g, 8 * kMiB);
  EXPECT_LT(peel.cct_seconds, optimal.cct_seconds * 2.5);
}

TEST_F(SmallFatTree, OrcaPaysSetupDelay) {
  const GroupSelection g = group(0, 16);
  RunnerOptions with;
  const auto delayed = run(fabric, Scheme::Orca, g, 2 * kMiB, with);
  RunnerOptions without;
  without.controller_delay_enabled = false;
  const auto immediate = run(fabric, Scheme::Orca, g, 2 * kMiB, without);
  // Setup delay ~N(10ms,5ms) dwarfs a 2 MiB transfer.
  EXPECT_GT(delayed.cct_seconds, immediate.cct_seconds + 0.001);
}

TEST_F(SmallFatTree, ProgCoresConvergesToSingleUpCopy) {
  // Misaligned pods {1,2} do not form a power-of-two pod block, so static
  // PEEL needs two packet streams; the refined exact tree needs one.
  GroupSelection g;
  g.source = ft.gpus[16];
  for (std::size_t i = 17; i < 48; ++i) g.destinations.push_back(ft.gpus[i]);
  // Large message: most chunks migrate to the refined tree after ~10 ms.
  RunnerOptions opts;
  const auto static_peel = run(fabric, Scheme::Peel, g, 256 * kMiB, opts);
  const auto refined = run(fabric, Scheme::PeelProgCores, g, 256 * kMiB, opts);
  EXPECT_LT(refined.fabric_bytes, static_peel.fabric_bytes);
}

TEST_F(SmallFatTree, SingleRackGroupStaysLocal) {
  const GroupSelection g = group(0, 8);  // one rack (2 hosts x 4 GPUs)
  const auto r = run(fabric, Scheme::Peel, g, 1 * kMiB);
  EXPECT_EQ(r.core_bytes, 0);  // never touches switch-to-switch links
}

TEST_F(SmallFatTree, StripingSpreadsChunksAcrossCores) {
  // With 4 stripes, chunks round-robin over trees with distinct core
  // choices: more distinct core links carry bytes than with a single tree.
  GroupSelection g = group(0, 48);  // spans pods so the core tier is used
  auto cores_used = [&](int stripes) {
    EventQueue queue;
    SimConfig sim;
    Network net(ft.topo, sim, queue);
    RunnerOptions opts;
    opts.stripe_trees = stripes;
    CollectiveRunner runner(fabric, net, queue, Rng(6), opts);
    BroadcastRequest req;
    req.id = 1;
    req.source = g.source;
    req.destinations = g.destinations;
    req.message_bytes = 8 * kMiB;
    runner.submit(Scheme::Optimal, req);
    queue.run();
    EXPECT_TRUE(runner.records().front().finished);
    int used = 0;
    for (LinkId l = 0; static_cast<std::size_t>(l) < ft.topo.link_count(); ++l) {
      const Link& lk = ft.topo.link(l);
      if (ft.topo.kind(lk.src) == NodeKind::Agg &&
          ft.topo.kind(lk.dst) == NodeKind::Core && net.link_bytes(l) > 0) {
        ++used;
      }
    }
    return used;
  };
  const int single = cores_used(1);
  const int striped = cores_used(4);
  EXPECT_EQ(single, 1);
  EXPECT_GT(striped, 1);
}

TEST_F(SmallFatTree, RejectsBadRequests) {
  EventQueue q;
  SimConfig sim;
  Network net(ft.topo, sim, q);
  CollectiveRunner runner(fabric, net, q, Rng(1), RunnerOptions{});
  BroadcastRequest empty;
  empty.id = 1;
  empty.source = ft.gpus[0];
  empty.message_bytes = kMiB;
  EXPECT_THROW(runner.submit(Scheme::Ring, empty), std::invalid_argument);

  BroadcastRequest ok;
  ok.id = 2;
  ok.source = ft.gpus[0];
  ok.destinations = {ft.gpus[1]};
  ok.message_bytes = kMiB;
  runner.submit(Scheme::Ring, ok);
  BroadcastRequest dup = ok;
  EXPECT_THROW(runner.submit(Scheme::Ring, dup), std::invalid_argument);
}

TEST(LeafSpineCollectives, PeelAsymmetricCompletesUnderFailures) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  Rng rng(3);
  fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.10, rng);
  const Fabric fabric = Fabric::of(ls);

  GroupSelection g;
  g.source = ls.gpus[0];
  for (std::size_t i = 1; i < 24; ++i) g.destinations.push_back(ls.gpus[i]);
  if (!all_reachable(ls.topo, g.source, g.destinations)) GTEST_SKIP();

  RunnerOptions opts;
  opts.peel_asymmetric = true;
  const auto r = run(fabric, Scheme::Peel, g, 4 * kMiB, opts);
  EXPECT_GT(r.cct_seconds, 0.0);

  // Ring and Tree also complete on the damaged fabric.
  EXPECT_GT(run(fabric, Scheme::Ring, g, 4 * kMiB).cct_seconds, 0.0);
  EXPECT_GT(run(fabric, Scheme::BinaryTree, g, 4 * kMiB).cct_seconds, 0.0);
}

TEST(LeafSpineCollectives, AsymmetricPeelBeatsUnicastUnderFailures) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{8, 16, 2, 2});
  Rng rng(7);
  fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.08, rng);
  const Fabric fabric = Fabric::of(ls);
  GroupSelection g;
  g.source = ls.gpus[0];
  for (std::size_t i = 1; i < 64; ++i) g.destinations.push_back(ls.gpus[i]);
  if (!all_reachable(ls.topo, g.source, g.destinations)) GTEST_SKIP();

  RunnerOptions peel_opts;
  peel_opts.peel_asymmetric = true;
  const auto peel = run(fabric, Scheme::Peel, g, 8 * kMiB, peel_opts);
  const auto ring = run(fabric, Scheme::Ring, g, 8 * kMiB);
  EXPECT_LT(peel.cct_seconds, ring.cct_seconds);
  EXPECT_LT(peel.fabric_bytes, ring.fabric_bytes);
}

TEST_F(SmallFatTree, ProgCoresHonorsPeelAsymmetricLikePeel) {
  // PEEL+ProgCores is PEEL's fast start plus migration, so peel_asymmetric
  // reaches its Broadcast exactly as it reaches PEEL's: on a fat-tree both
  // reject it with the same error instead of one silently running symmetric.
  RunnerOptions opts;
  opts.peel_asymmetric = true;
  const GroupSelection g = group(0, 8);
  const auto error_of = [&](Scheme scheme) {
    try {
      (void)run(fabric, scheme, g, kMiB, opts);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of(Scheme::Peel),
            "asymmetric PEEL requires a leaf-spine fabric");
  EXPECT_EQ(error_of(Scheme::PeelProgCores), error_of(Scheme::Peel));
}

TEST(SchemeNames, Strings) {
  EXPECT_STREQ(to_string(Scheme::Ring), "Ring");
  EXPECT_STREQ(to_string(Scheme::PeelProgCores), "PEEL+ProgCores");
}

TEST(Chunking, SplitsEvenly) {
  const auto c = split_chunks(8 * kMiB, 8);
  ASSERT_EQ(c.size(), 8u);
  for (Bytes b : c) EXPECT_EQ(b, kMiB);
}

TEST(Chunking, SpreadsRemainder) {
  const auto c = split_chunks(10, 4);
  EXPECT_EQ(c, (std::vector<Bytes>{3, 3, 2, 2}));
}

TEST(Chunking, TinyMessageFewerChunks) {
  const auto c = split_chunks(3, 8);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_THROW(split_chunks(0, 8), std::invalid_argument);
}

}  // namespace
}  // namespace peel
