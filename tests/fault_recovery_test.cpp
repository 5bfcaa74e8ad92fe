// End-to-end recovery under dynamic faults: links fail AND repair while
// collectives are in flight, the automatic recovery passes re-send whatever
// the outages ate, and the byte-conservation audit proves every receiver got
// its payload exactly once (full conservation at drain rejects double
// delivery as loudly as under-delivery).
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/harness/experiment.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

Fabric test_fabric(LeafSpine& storage) {
  storage = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  return Fabric::of(storage);
}

ScenarioConfig base_config() {
  ScenarioConfig config;
  config.group_size = 16;
  config.message_bytes = 256 * kKiB;
  config.offered_load = 0.3;
  config.collectives = 8;
  config.seed = 90210;
  config.byte_audit = true;   // exactly-once delivery, checked byte by byte
  config.watchdog = true;     // unfinished collectives fail with diagnostics
  return config;
}

FlapProcess default_flap() {
  // Concentrated on the window where the collectives are actually in
  // flight (they drain within ~250 us at this load), and wide enough
  // (12 of the 32 spine-leaf pairs) that outages provably cross live
  // trees: recovery is surgical now — recover_all only re-sends
  // deliveries an outage actually ate — so a sparse schedule that never
  // hits a live stream would recover nothing and the teeth-check below
  // would be vacuous.
  FlapProcess flap;
  flap.mtbf_seconds = 60e-6;
  flap.mttr_seconds = 25e-6;
  flap.links = 12;
  flap.horizon_seconds = 400e-6;
  return flap;
}

TEST(FaultRecovery, PeelBroadcastSurvivesFlapping) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Peel;
  config.runner.peel_asymmetric = true;  // trees must tolerate mid-run damage
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_GT(r.fault_downs, 0u);
  // Every outage heals (repairs past the horizon still fire), so after the
  // final Up the recovery pass finishes everything exactly once.
  EXPECT_EQ(r.fault_ups, r.fault_downs);
  EXPECT_GT(r.recovered_deliveries, 0u)
      << "flapping never hit a live stream — the test lost its teeth";
}

TEST(FaultRecovery, RingBroadcastSurvivesFlapping) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Ring;
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
}

TEST(FaultRecovery, TreeBroadcastSurvivesExplicitSwitchOutage) {
  // A spine dies mid-run and comes back: the declarative schedule variant of
  // the flapping tests, pinned to an exact, reproducible outage window.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::BinaryTree;
  config.faults.schedule.switch_down(seconds_to_sim(150e-6), ls.spines[0]);
  config.faults.schedule.switch_up(seconds_to_sim(600e-6), ls.spines[0]);

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  // The switch takes all 8 of its leaf uplink pairs down and back up.
  EXPECT_EQ(r.fault_downs, 8u);
  EXPECT_EQ(r.fault_ups, 8u);
}

TEST(FaultRecovery, AllReduceSurvivesFlapping) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Ring;
  config.collective = CollectiveKind::AllReduce;
  config.collectives = 4;
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
}

TEST(FaultRecovery, AllGatherSurvivesFlapping) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Ring;
  config.collective = CollectiveKind::AllGather;
  config.collectives = 4;
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
}

TEST(FaultRecovery, InNetAllReduceSurvivesReduceTreeOutage) {
  // Kill a spine while in-network reductions are mid-flight: the fused
  // reduce stream loses both down-tree deliveries AND up-mirror
  // contributions (some already combined into switch SRAM and gone with
  // it). recover_scheme must re-run the whole reduction over a fresh live
  // tree — the byte-conservation audit rejects a dropped contribution
  // (under-delivery) and a double-counted one (a stale partial combining
  // with the re-sent copy) equally loudly.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::InNet;
  config.collective = CollectiveKind::AllReduce;
  config.collectives = 4;
  // 60 us lands inside the first collectives' reduce/broadcast window on
  // this fabric (they drain within ~250 us at this load), so the outage
  // provably eats live reduce-stream deliveries — the recovered teeth
  // check below is not vacuous.
  config.faults.schedule.switch_down(seconds_to_sim(60e-6), ls.spines[0]);
  config.faults.schedule.switch_up(seconds_to_sim(2e-3), ls.spines[0]);

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  // The spine takes all 8 of its leaf uplink pairs down and back up.
  EXPECT_EQ(r.fault_downs, 8u);
  EXPECT_EQ(r.fault_ups, 8u);
  EXPECT_GT(r.recovered_deliveries, 0u)
      << "the outage never hit a live reduce stream — the test lost its teeth";
  // Switch combining actually ran (contributions were held in SRAM).
  EXPECT_GT(r.reduce_sram_peak, 0u);
}

TEST(FaultRecovery, InNetAllReduceSurvivesFlapping) {
  // The stochastic variant: repeated short outages across 12 spine-leaf
  // pairs while reductions run. Every flap that crosses a fused stream
  // supersedes it (close + re-fuse on live links), so the exactly-once
  // audit holds across arbitrarily many repair generations.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::InNet;
  config.collective = CollectiveKind::AllReduce;
  config.collectives = 4;
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_GT(r.fault_downs, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
  EXPECT_GT(r.reduce_sram_peak, 0u);
}

TEST(FaultRecovery, WithoutRecoveryAnOutageStrandsCollectives) {
  // Negative control: the same damage with auto-recovery off must leave
  // collectives unfinished — proof the recovery passes are what saves the
  // positive tests, not luck.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Ring;
  config.watchdog = false;           // unfinished is the expected outcome
  config.deadline_seconds = 20e-3;   // safety net
  config.faults.auto_recover = false;
  // Permanently kill one spine mid-run; the fabric stays connected (3 spines
  // remain) but in-flight segments through it are gone for good.
  config.faults.schedule.switch_down(seconds_to_sim(150e-6), ls.spines[0]);

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_GT(r.unfinished, 0u);
  EXPECT_EQ(r.recovered_deliveries, 0u);
  EXPECT_EQ(r.fault_ups, 0u);
}

TEST(FaultRecovery, RecoveryAlsoHealsTheNoRecoverScenario) {
  // Identical damage, recovery on, plus an eventual repair: everything
  // finishes. Paired with the test above this isolates recovery as the
  // difference-maker.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Ring;
  config.faults.schedule.switch_down(seconds_to_sim(150e-6), ls.spines[0]);
  config.faults.schedule.switch_up(seconds_to_sim(2e-3), ls.spines[0]);

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_GT(r.recovered_deliveries, 0u);
}

TEST(FaultRecovery, UnicastFallbackWhenRecoveryTreesDisabled) {
  // recovery_trees=false forces the per-receiver unicast path — it must be
  // just as correct, only more expensive.
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Peel;
  config.runner.peel_asymmetric = true;
  config.runner.recovery_trees = false;
  config.faults.flap = default_flap();

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
}

TEST(FaultRecovery, FlappingRunIsSeedReproducible) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Peel;
  config.runner.peel_asymmetric = true;
  config.faults.flap = default_flap();

  const ScenarioResult a = run_scenario(fabric, config);
  const ScenarioResult b = run_scenario(fabric, config);
  EXPECT_EQ(a.cct_seconds.values(), b.cct_seconds.values());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_downs, b.fault_downs);
  EXPECT_EQ(a.recovered_deliveries, b.recovered_deliveries);
}

TEST(FaultRecovery, PeelAllGatherOnFatTreeSurvivesAggCoreOutage) {
  // Static PEEL trees on a fat-tree climb to a salted (aggregation, core)
  // pair. Here every pod link of core (0, 0) goes down while fragmented
  // AllGathers run, so rules salted onto that core must move to a live pair
  // (recovery and fresh submissions alike) instead of failing the build.
  FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config = base_config();
  config.scheme = Scheme::Peel;
  config.collective = CollectiveKind::AllGather;
  config.group_size = 32;
  config.fragmentation = 0.25;
  config.collectives = 6;
  const NodeId core = ft.core_at(0, 0);
  for (LinkId l : ft.topo.out_links(core)) {
    config.faults.schedule.link_down(seconds_to_sim(20e-6), l);
  }
  for (LinkId l : ft.topo.out_links(core)) {
    config.faults.schedule.link_up(seconds_to_sim(3e-3), l);
  }

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_downs, 8u);
  EXPECT_EQ(r.fault_ups, 8u);
}

TEST(FaultRecovery, ScheduleIsValidatedAgainstTheFabric) {
  LeafSpine ls;
  const Fabric fabric = test_fabric(ls);
  ScenarioConfig config = base_config();
  config.faults.schedule.link_up(seconds_to_sim(100e-6),
                                 duplex_spine_leaf_links(ls.topo)[0]);
  EXPECT_THROW((void)run_scenario(fabric, config), std::invalid_argument);
}

}  // namespace
}  // namespace peel
