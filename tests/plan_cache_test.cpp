// TreePlanCache contract under the topology-event API, on real trees. Unit
// tests pin the link-keyed surgical invalidation semantics on a 4-spine,
// 8-leaf leaf–spine: a TopologyDelta touches only the part lists whose trees
// traverse a failed pair (repaired in place, or evicted when a receiver is
// cut off), up transitions touch nothing, and PeelPlans are immune. The
// artifact tests prove every runner lookup serves on a hit exactly what a
// direct build returns. Scenario tests prove fault runs stay deterministic
// and exactly-once (byte audit + watchdog), and that sweep thread-invariance
// survives the cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "src/collectives/plan_cache.h"
#include "src/collectives/runner.h"
#include "src/common/rng.h"
#include "src/harness/sweep.h"
#include "src/sim/network.h"
#include "src/steiner/layer_peel.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

LinkId pair_of(LinkId l) { return l - l % 2; }

bool traverses(const std::vector<PeelStream>& parts, LinkId pair) {
  for (const PeelStream& part : parts) {
    for (LinkId l : part.tree.links()) {
      if (pair_of(l) == pair) return true;
    }
  }
  return false;
}

/// The golden test's leaf–spine (4 spines, 8 leaves, 2 hosts of 2 GPUs per
/// leaf: GPUs 4i..4i+3 sit under leaf i) and a cache in front of the real
/// builders, counting how often a builder ran.
class PlanCacheTest : public ::testing::Test {
 protected:
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  TreePlanCache cache;
  int builds = 0;

  NodeId gpu(int leaf, int i) const {
    return ls.gpus[static_cast<std::size_t>(4 * leaf + i)];
  }

  /// A one-part recovery tree, built as CollectiveRunner::recovery_tree_for
  /// builds it; `kind` only changes the key.
  std::shared_ptr<const std::vector<PeelStream>> tree(
      NodeId source, const std::vector<NodeId>& dests,
      PlanKind kind = PlanKind::RecoveryTree) {
    return cache.get_or_build(kind, source, dests, PeelCoverOptions{}, [&] {
      ++builds;
      std::vector<PeelStream> whole;
      whole.push_back(PeelStream{layer_peel_tree(ls.topo, source, dests), dests});
      return whole;
    });
  }

  std::shared_ptr<const PeelPlan> plan(NodeId source, const std::vector<NodeId>& dests,
                                       const PeelCoverOptions& cover = {}) {
    return cache.get_or_build(PlanKind::PeelPlan, source, dests, cover, [&] {
      ++builds;
      return build_peel_plan(ls, source, dests, cover);
    });
  }

  /// The duplex pair a part list's tree enters `node` over.
  LinkId pair_into(const std::vector<PeelStream>& parts, NodeId node) const {
    return pair_of(parts.front().tree.in_link_of(node));
  }
  /// The pair between `dest`'s host and its leaf (the host's only uplink:
  /// failing it cuts `dest` off).
  LinkId host_uplink(const std::vector<PeelStream>& parts, NodeId dest) const {
    return pair_into(parts, ls.topo.host_of(dest));
  }
  /// The spine→leaf pair the tree reaches `dest`'s leaf over.
  LinkId spine_downlink(const std::vector<PeelStream>& parts, NodeId dest) const {
    const LinkId into_host = parts.front().tree.in_link_of(ls.topo.host_of(dest));
    return pair_into(parts, ls.topo.link(into_host).src);
  }

  void fail(LinkId pair) {
    ls.topo.fail_duplex(pair);
    cache.apply_delta(TopologyDelta::link_down(pair), ls.topo);
  }
  void restore(LinkId pair) {
    ls.topo.restore_duplex(pair);
    cache.apply_delta(TopologyDelta::link_up(pair), ls.topo);
  }
};

TEST_F(PlanCacheTest, HitReturnsTheSameArtifact) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0)};
  const auto a = plan(gpu(0, 0), dests);
  const auto b = plan(gpu(0, 0), dests);
  EXPECT_EQ(a.get(), b.get());  // shared artifact, not a copy
  const auto t = tree(gpu(0, 0), dests);
  EXPECT_EQ(tree(gpu(0, 0), dests).get(), t.get());
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST_F(PlanCacheTest, EveryKeyFieldSeparatesEntries) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0), gpu(3, 1)};
  (void)tree(gpu(0, 0), dests);
  // The same builder and group under a different kind must not alias.
  (void)tree(gpu(0, 0), dests, PlanKind::PeelAsymmetric);
  (void)plan(gpu(0, 0), dests);
  // Different source.
  (void)plan(gpu(0, 1), dests);
  // Different destination set.
  (void)plan(gpu(0, 0), {gpu(1, 0), gpu(2, 0)});
  // Different cover policy, one field at a time.
  (void)plan(gpu(0, 0), dests, PeelCoverOptions{1, 0});
  (void)plan(gpu(0, 0), dests, PeelCoverOptions{0, 1});
  EXPECT_EQ(builds, 7);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 7u);
}

// The core of the surgical contract: a delta touches exactly the entries
// whose trees traverse a failed pair. Cutting a receiver's host off makes
// its entry unrepairable, so it is evicted; the untouched entry survives as
// the very same shared artifact.
TEST_F(PlanCacheTest, DownDeltaEvictsOnlyEntriesTraversingTheFailedPair) {
  const std::vector<NodeId> cut_off{gpu(1, 0), gpu(2, 0)};
  const std::vector<NodeId> elsewhere{gpu(3, 0), gpu(4, 0)};
  const auto doomed = tree(gpu(0, 0), cut_off);
  const auto safe = tree(gpu(0, 0), elsewhere);
  const LinkId cut = host_uplink(*doomed, gpu(1, 0));
  ASSERT_FALSE(traverses(*safe, cut));

  fail(cut);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(tree(gpu(0, 0), elsewhere).get(), safe.get())
      << "an entry not traversing the failed pair must survive untouched";
  EXPECT_THROW((void)tree(gpu(0, 0), cut_off), std::runtime_error)
      << "while the host is cut off there is no tree to serve";
  EXPECT_EQ(cache.size(), 1u) << "a build that throws caches nothing";
}

// A repair patches the affected entry in place: the next lookup serves the
// repaired tree without a rebuild, and the entry is re-indexed under its new
// edges (the old pair no longer reaches it, a new one does).
TEST_F(PlanCacheTest, RepairPatchesAndReindexes) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0)};
  const auto before = tree(gpu(0, 0), dests);
  const LinkId old_pair = spine_downlink(*before, gpu(1, 0));

  fail(old_pair);
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  const auto served = tree(gpu(0, 0), dests);
  EXPECT_EQ(builds, 1) << "the repaired entry must serve without a rebuild";
  EXPECT_NE(served.get(), before.get());
  EXPECT_FALSE(traverses(*served, old_pair));
  EXPECT_TRUE(served->front().tree.validate(ls.topo).ok);
  EXPECT_EQ(served->front().receivers, dests);

  cache.apply_delta(TopologyDelta::link_down(old_pair), ls.topo);
  EXPECT_EQ(cache.stats().repairs, 1u) << "the old pair no longer indexes it";
  const LinkId new_pair = spine_downlink(*served, gpu(1, 0));
  ASSERT_NE(new_pair, old_pair);
  fail(new_pair);
  EXPECT_EQ(cache.stats().repairs, 2u) << "the new pair does";
  EXPECT_EQ(cache.size(), 1u);
}

// Batching regression: a switch-down delta reports every duplex pair of the
// dead switch in ONE TopologyDelta, and a tree traversing several of them
// sits in several edge buckets. Each affected entry must be repaired exactly
// once per delta — not once per matching pair.
TEST_F(PlanCacheTest, MultiPairDeltaRepairsEachEntryOnce) {
  const auto wide = tree(gpu(0, 0), {gpu(1, 0), gpu(2, 0), gpu(3, 0)});
  const auto narrow = tree(gpu(4, 0), {gpu(5, 0), gpu(6, 0)});
  const NodeId spine =
      ls.topo.link(wide->front().tree.in_link_of(ls.leaves[1])).src;

  TopologyDelta outage;
  outage.change = TopologyChange::SwitchDown;
  outage.switch_id = spine;
  for (LinkId l : ls.topo.out_links(spine)) outage.down_pairs.push_back(pair_of(l));
  std::sort(outage.down_pairs.begin(), outage.down_pairs.end());
  std::size_t wide_pairs = 0;
  for (LinkId pair : outage.down_pairs) wide_pairs += traverses(*wide, pair) ? 1 : 0;
  ASSERT_GE(wide_pairs, 4u) << "the wide tree fans out of the doomed spine";
  ASSERT_TRUE(std::any_of(outage.down_pairs.begin(), outage.down_pairs.end(),
                          [&](LinkId p) { return traverses(*narrow, p); }));

  for (LinkId pair : outage.down_pairs) ls.topo.fail_duplex(pair);
  cache.apply_delta(outage, ls.topo);
  EXPECT_EQ(cache.stats().repairs, 2u) << "one repair per affected entry";
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // Both entries were re-indexed away from the dead spine: replaying the
  // outage reaches neither.
  cache.apply_delta(outage, ls.topo);
  EXPECT_EQ(cache.stats().repairs, 2u);
  EXPECT_EQ(builds, 2);
}

// The once-per-delta stamp must not stick across deltas: a later delta that
// hits the repaired entry again repairs it again, and eviction under a
// multi-pair delta counts once per entry too.
TEST_F(PlanCacheTest, PassStampResetsBetweenDeltas) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0)};
  const auto before = tree(gpu(0, 0), dests);
  const LinkId second = spine_downlink(*before, gpu(2, 0));

  fail(spine_downlink(*before, gpu(1, 0)));
  const auto repaired = tree(gpu(0, 0), dests);
  ASSERT_TRUE(traverses(*repaired, second))
      << "the surviving branch is kept verbatim";
  fail(second);
  EXPECT_EQ(cache.stats().repairs, 2u) << "each delta gets its own repair pass";

  const auto now = tree(gpu(0, 0), dests);
  TopologyDelta both;
  both.down_pairs = {host_uplink(*now, gpu(1, 0)), host_uplink(*now, gpu(2, 0))};
  for (LinkId pair : both.down_pairs) ls.topo.fail_duplex(pair);
  cache.apply_delta(both, ls.topo);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(builds, 1);
}

// An up delta evicts nothing — and in particular can never resurrect the
// entry the down delta evicted: the next lookup builds fresh against the
// healed fabric. Entries cached during the outage survive it.
TEST_F(PlanCacheTest, UpDeltaNeverResurrectsAnEvictedEntry) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0)};
  const auto before = tree(gpu(0, 0), dests);
  const LinkId cut = host_uplink(*before, gpu(1, 0));
  fail(cut);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  const auto during = tree(gpu(0, 0), {gpu(2, 0), gpu(3, 0)});

  restore(cut);
  EXPECT_EQ(cache.stats().invalidations, 1u) << "ups must evict nothing";
  EXPECT_EQ(cache.stats().repairs, 0u);
  EXPECT_EQ(tree(gpu(0, 0), {gpu(2, 0), gpu(3, 0)}).get(), during.get())
      << "a tree built during the outage stays valid after it";
  const std::uint64_t misses = cache.stats().misses;
  const auto after = tree(gpu(0, 0), dests);
  EXPECT_EQ(cache.stats().misses, misses + 1)
      << "the up delta must not resurrect the evicted entry";
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(builds, 3);

  // Even an up delta naming a pair the tree traverses touches nothing.
  cache.apply_delta(TopologyDelta::link_up(host_uplink(*after, gpu(1, 0))), ls.topo);
  EXPECT_EQ(tree(gpu(0, 0), dests).get(), after.get());
  EXPECT_EQ(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// PeelPlans never read the failure set and carry no edges: no delta touches
// them, while a tree entry beside them is repaired or evicted.
TEST_F(PlanCacheTest, PeelPlanEntriesIgnoreDeltas) {
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0), gpu(5, 1)};
  const auto p = plan(gpu(0, 0), dests);
  (void)tree(gpu(0, 0), dests);
  for (LinkId pair = 0; pair < static_cast<LinkId>(ls.topo.link_count()); pair += 2) {
    fail(pair);
    restore(pair);
  }
  EXPECT_GT(cache.stats().invalidations + cache.stats().repairs, 0u)
      << "the deltas reached the tree entry";
  EXPECT_EQ(plan(gpu(0, 0), dests).get(), p.get());
}

// The capacity flush counts every entry, PeelPlans and part lists alike, and
// loses only entries, never correctness: a repeated key rebuilds.
TEST_F(PlanCacheTest, CapacityFlushCountsEveryEntry) {
  cache = TreePlanCache(2);
  const std::vector<NodeId> dests{gpu(1, 0), gpu(2, 0)};
  (void)plan(gpu(0, 0), dests);
  (void)tree(gpu(0, 1), dests);
  EXPECT_EQ(cache.size(), 2u);
  (void)plan(gpu(0, 2), dests);
  EXPECT_EQ(cache.size(), 1u) << "the third entry flushed both kinds";
  (void)tree(gpu(0, 3), dests);
  (void)plan(gpu(0, 0), dests);
  EXPECT_EQ(builds, 5) << "the flushed key rebuilds";
  EXPECT_LE(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// Artifacts: every runner lookup serves on a hit what a direct build returns.
// ---------------------------------------------------------------------------

void expect_same_parts(const std::vector<PeelStream>& got,
                       const std::vector<PeelStream>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tree.links(), want[i].tree.links()) << "part " << i;
    EXPECT_EQ(got[i].receivers, want[i].receivers) << "part " << i;
  }
}

void expect_same_plan(const PeelPlan& got, const PeelPlan& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.destinations, want.destinations);
  EXPECT_EQ(got.source_local, want.source_local);
  ASSERT_EQ(got.packets.size(), want.packets.size());
  for (std::size_t i = 0; i < got.packets.size(); ++i) {
    const PeelPacketRule& a = got.packets[i];
    const PeelPacketRule& b = want.packets[i];
    EXPECT_EQ(a.pods, b.pods) << "packet " << i;
    EXPECT_EQ(a.pod_prefix, b.pod_prefix) << "packet " << i;
    EXPECT_EQ(a.tor_prefix, b.tor_prefix) << "packet " << i;
    EXPECT_EQ(a.host_prefix, b.host_prefix) << "packet " << i;
    EXPECT_EQ(a.member_tors, b.member_tors) << "packet " << i;
    EXPECT_EQ(a.redundant_tors, b.redundant_tors) << "packet " << i;
    EXPECT_EQ(a.covered_host_idx, b.covered_host_idx) << "packet " << i;
  }
}

/// Fills one runner's cache with seeded random groups, then looks every
/// group up again (each lookup a hit, among the other groups' entries) and
/// compares the served artifact with a fresh direct build.
void expect_hits_match_direct_builds(const Fabric& fabric,
                                     const PeelCoverOptions& cover,
                                     std::uint64_t seed) {
  SCOPED_TRACE(seed);
  EventQueue queue;
  Network net(fabric.topo(), SimConfig{}, queue);
  RunnerOptions options;
  options.peel_cover = cover;
  CollectiveRunner runner(fabric, net, queue, Rng(1), options);
  const bool leaf_spine = fabric.leaf_spine != nullptr;

  // Two sources and small groups: many groups share a source and a size,
  // so only the full destination vector tells their keys apart.
  Rng rng(seed);
  const std::vector<NodeId>& endpoints = fabric.endpoints();
  std::vector<std::vector<NodeId>> groups;
  for (std::size_t g = 0; g < 12; ++g) {
    std::vector<NodeId> dests(endpoints.begin() + 2, endpoints.end());
    rng.shuffle(dests);
    dests.resize(1 + rng.next_below(6));
    std::sort(dests.begin(), dests.end());
    dests.insert(dests.begin(), endpoints[g % 2]);
    groups.push_back(std::move(dests));
  }
  const auto lookup_all = [&](const std::vector<NodeId>& group) {
    const NodeId source = group.front();
    const std::vector<NodeId> dests(group.begin() + 1, group.end());
    (void)runner.peel_plan_for(source, dests);
    (void)runner.reduce_plan_for(source, dests);
    (void)runner.recovery_tree_for(source, dests);
    if (leaf_spine) (void)runner.asymmetric_trees_for(source, dests);
  };
  for (const auto& group : groups) lookup_all(group);

  for (const auto& group : groups) {
    const NodeId source = group.front();
    const std::vector<NodeId> dests(group.begin() + 1, group.end());
    const std::uint64_t hits = runner.plan_cache().stats().hits;
    const PeelPlan direct_plan =
        leaf_spine ? build_peel_plan(*fabric.leaf_spine, source, dests, cover)
                   : build_peel_plan(*fabric.fat_tree, source, dests, cover);
    expect_same_plan(*runner.peel_plan_for(source, dests), direct_plan);
    expect_same_parts(*runner.reduce_plan_for(source, dests),
                      peel_static_trees(fabric, direct_plan, 0));
    std::vector<PeelStream> whole;
    whole.push_back(PeelStream{layer_peel_tree(fabric.topo(), source, dests), dests});
    expect_same_parts(*runner.recovery_tree_for(source, dests), whole);
    std::uint64_t lookups = 3;
    if (leaf_spine) {
      expect_same_parts(*runner.asymmetric_trees_for(source, dests),
                        peel_asymmetric_trees(*fabric.leaf_spine, source, dests));
      ++lookups;
    }
    EXPECT_EQ(runner.plan_cache().stats().hits, hits + lookups)
        << "every second lookup must be a hit";
  }
}

TEST(PlanCacheArtifacts, FatTreeHitsMatchDirectBuilds) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  for (std::uint64_t seed : {11u, 12u}) {
    expect_hits_match_direct_builds(fabric, PeelCoverOptions{}, seed);
    expect_hits_match_direct_builds(fabric, PeelCoverOptions::compact(), seed);
  }
}

TEST(PlanCacheArtifacts, LeafSpineHitsMatchDirectBuilds) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  for (std::uint64_t seed : {21u, 22u}) {
    expect_hits_match_direct_builds(fabric, PeelCoverOptions{}, seed);
    expect_hits_match_direct_builds(fabric, PeelCoverOptions::compact(), seed);
  }
}

// ---------------------------------------------------------------------------
// Scenario-level behavior.
// ---------------------------------------------------------------------------

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.cct_seconds.count(), b.cct_seconds.count());
  EXPECT_EQ(a.cct_seconds.values(), b.cct_seconds.values());
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.core_bytes, b.core_bytes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.ecn_marks, b.ecn_marks);
  EXPECT_EQ(a.pfc_pauses, b.pfc_pauses);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.recovered_deliveries, b.recovered_deliveries);
}

TEST(PlanCacheScenario, StripedBroadcastHits) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});  // 64 GPUs
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.group_size = 16;
  config.message_bytes = 1 * kMiB;
  config.collectives = 6;
  config.seed = 777;
  config.byte_audit = true;
  config.watchdog = true;
  config.runner.stripe_trees = 2;  // stripes share one plan -> sure hits

  const ScenarioResult on = run_scenario(fabric, config);
  EXPECT_GT(on.plan_cache.hits, 0u)
      << "striped broadcasts must share the per-collective plan";
}

// Faults land between chunks of in-flight collectives. The deltas surgically
// repair/evict only the plans whose trees traverse the dead pairs; runs stay
// fully deterministic (two identical runs agree byte-for-byte), and the
// audit+watchdog prove exactly-once delivery. Across failure states the cache
// guarantees validity rather than byte-equality with from-scratch rebuilds.
TEST(PlanCacheScenario, FaultDeltasInvalidateSurgicallyMidRun) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.group_size = 16;
  config.message_bytes = 256 * kKiB;
  config.collectives = 8;
  config.seed = 90210;
  config.byte_audit = true;
  config.watchdog = true;
  config.runner.peel_asymmetric = true;
  config.faults.schedule.switch_down(seconds_to_sim(150e-6), ls.spines[0]);
  config.faults.schedule.switch_up(seconds_to_sim(600e-6), ls.spines[0]);

  const ScenarioResult on = run_scenario(fabric, config);
  const ScenarioResult replay = run_scenario(fabric, config);
  expect_identical(on, replay);

  EXPECT_GT(on.fault_downs, 0u);
  EXPECT_EQ(on.unfinished, 0u);
  EXPECT_GT(on.plan_cache.invalidations + on.plan_cache.repairs, 0u)
      << "the switch outage must touch the plans traversing its links";
  EXPECT_GT(on.plan_cache.misses, 0u);
}

// The sweep engine's core guarantee — identical cells at any thread count —
// must survive the cache. Each cell owns a private runner (and so a private
// cache); shared state here would show up as cross-cell divergence.
TEST(PlanCacheScenario, SweepThreadInvarianceWithCacheEnabled) {
  unsetenv("PEEL_BENCH_THREADS");
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);

  SweepSpec spec;
  spec.base.scheme = Scheme::Peel;
  spec.base.group_size = 8;
  spec.base.message_bytes = 1 * kMiB;
  spec.base.collectives = 3;
  spec.base.seed = 99;
  spec.base.runner.stripe_trees = 2;  // give every cell real cache traffic
  spec.schemes = {Scheme::Peel, Scheme::Optimal};
  spec.replicas = 2;
  spec.master_seed = 7;

  SweepOptions serial;
  serial.threads = 1;
  const SweepResults a = run_sweep(fabric, spec, serial);
  SweepOptions parallel;
  parallel.threads = 4;
  const SweepResults b = run_sweep(fabric, spec, parallel);

  ASSERT_EQ(a.size(), b.size());
  bool any_hits = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a.cells()[i].result, b.cells()[i].result);
    const PlanCacheStats& pa = a.cells()[i].result.plan_cache;
    const PlanCacheStats& pb = b.cells()[i].result.plan_cache;
    EXPECT_EQ(pa.hits, pb.hits);
    EXPECT_EQ(pa.misses, pb.misses);
    EXPECT_EQ(pa.invalidations, pb.invalidations);
    EXPECT_EQ(pa.repairs, pb.repairs);
    any_hits = any_hits || pa.hits > 0;
  }
  EXPECT_TRUE(any_hits) << "no cell exercised the cache — the test lost "
                           "its teeth";
}

}  // namespace
}  // namespace peel
