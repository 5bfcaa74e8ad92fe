// Contract tests for the topology-change event API. The bus, the delta
// factories, and the injector's published deltas form the public surface
// that cache invalidation and incremental repair hang off — these tests pin
// the invariants every consumer relies on: monotone sequence stamping,
// subscription-order notification, idempotent subscribe/unsubscribe,
// duplex-pair normalization, and the AppliedFault::changed_pairs() view.
//
// The harness entry points share one engine selector; the EngineSelection
// cases pin its one rejected combination (flow fidelity with shards > 0) at
// each entry point, so none of them can silently fall back to another engine.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/workload.h"
#include "src/routing/topology_events.h"
#include "src/topology/fat_tree.h"

namespace peel {
namespace {

struct Recorder : TopologyObserver {
  std::string name;
  std::vector<std::string>* order = nullptr;
  std::vector<TopologyDelta> seen;
  void on_topology_delta(const TopologyDelta& delta) override {
    seen.push_back(delta);
    if (order != nullptr) order->push_back(name);
  }
};

TEST(TopologyDelta, FactoriesNormalizeToDuplexPairRepresentatives) {
  // Links come in duplex pairs (2k, 2k+1); every consumer keys on the even
  // representative, so the factories must fold odd ids down.
  const TopologyDelta down = TopologyDelta::link_down(7, 123);
  EXPECT_EQ(down.change, TopologyChange::LinkDown);
  ASSERT_EQ(down.down_pairs.size(), 1u);
  EXPECT_EQ(down.down_pairs[0], 6);
  EXPECT_TRUE(down.up_pairs.empty());
  EXPECT_EQ(down.time, 123);
  EXPECT_TRUE(down.any());

  const TopologyDelta up = TopologyDelta::link_up(6);
  EXPECT_EQ(up.change, TopologyChange::LinkUp);
  ASSERT_EQ(up.up_pairs.size(), 1u);
  EXPECT_EQ(up.up_pairs[0], 6);
  EXPECT_TRUE(up.down_pairs.empty());

  const TopologyDelta empty{};
  EXPECT_FALSE(empty.any());
}

TEST(TopologyEventBus, PublishStampsMonotoneSequenceNumbers) {
  TopologyEventBus bus;
  Recorder obs;
  bus.subscribe(&obs);
  EXPECT_EQ(bus.last_seq(), 0u);

  const std::uint64_t s1 = bus.publish(TopologyDelta::link_down(0));
  const std::uint64_t s2 = bus.publish(TopologyDelta::link_up(0));
  const std::uint64_t s3 = bus.publish(TopologyDelta::link_down(2));
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(s3, 3u);
  EXPECT_EQ(bus.last_seq(), 3u);

  // Observers see the stamped sequence, not the caller's zero.
  ASSERT_EQ(obs.seen.size(), 3u);
  EXPECT_EQ(obs.seen[0].seq, 1u);
  EXPECT_EQ(obs.seen[1].seq, 2u);
  EXPECT_EQ(obs.seen[2].seq, 3u);
}

TEST(TopologyEventBus, NotifiesInSubscriptionOrder) {
  TopologyEventBus bus;
  std::vector<std::string> order;
  Recorder a;
  a.name = "router";
  a.order = &order;
  Recorder b;
  b.name = "runner";
  b.order = &order;
  bus.subscribe(&a);
  bus.subscribe(&b);
  bus.publish(TopologyDelta::link_down(4));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "router");
  EXPECT_EQ(order[1], "runner");
}

TEST(TopologyEventBus, SubscribeIsIdempotentAndUnsubscribeStopsDelivery) {
  TopologyEventBus bus;
  Recorder obs;
  bus.subscribe(&obs);
  bus.subscribe(&obs);  // double-subscribe must not double-deliver
  EXPECT_EQ(bus.observer_count(), 1u);
  bus.publish(TopologyDelta::link_down(0));
  EXPECT_EQ(obs.seen.size(), 1u);

  bus.unsubscribe(&obs);
  EXPECT_EQ(bus.observer_count(), 0u);
  bus.publish(TopologyDelta::link_down(2));
  EXPECT_EQ(obs.seen.size(), 1u);
  bus.unsubscribe(&obs);  // unsubscribing a non-subscriber is a no-op
}

TEST(TopologyEventBus, SequenceAdvancesWithNoObservers) {
  // Publishing into an empty bus still burns a sequence number — consumers
  // that subscribe late must never see a seq they could confuse with an
  // event they already processed.
  TopologyEventBus bus;
  EXPECT_EQ(bus.publish(TopologyDelta::link_down(0)), 1u);
  Recorder obs;
  bus.subscribe(&obs);
  EXPECT_EQ(bus.publish(TopologyDelta::link_up(0)), 2u);
  ASSERT_EQ(obs.seen.size(), 1u);
  EXPECT_EQ(obs.seen[0].seq, 2u);
}

TEST(TopologyChangeNames, ToStringCoversEveryKind) {
  EXPECT_STREQ(to_string(TopologyChange::LinkDown), "link-down");
  EXPECT_STREQ(to_string(TopologyChange::LinkUp), "link-up");
  EXPECT_STREQ(to_string(TopologyChange::SwitchDown), "switch-down");
  EXPECT_STREQ(to_string(TopologyChange::SwitchUp), "switch-up");
}

const FatTree& small_fat_tree() {
  static const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  return ft;
}

TEST(EngineSelection, RunScenarioRejectsFlowWithShards) {
  ScenarioConfig config;
  config.group_size = 4;
  config.message_bytes = 64 * kKiB;
  config.collectives = 1;
  config.fidelity = Fidelity::Flow;
  config.shards = 2;
  EXPECT_THROW((void)run_scenario(Fabric::of(small_fat_tree()), config),
               std::invalid_argument);
}

TEST(EngineSelection, RunSingleBroadcastRejectsFlowWithShards) {
  const Fabric fabric = Fabric::of(small_fat_tree());
  SingleRunOptions options;
  options.group.source = fabric.endpoints()[0];
  options.group.destinations = {fabric.endpoints()[1], fabric.endpoints()[5]};
  options.message_bytes = 64 * kKiB;
  options.fidelity = Fidelity::Flow;
  options.shards = 1;
  EXPECT_THROW((void)run_single_broadcast(fabric, options),
               std::invalid_argument);
  options.shards = 0;  // the flow engine alone still runs
  EXPECT_GT(run_single_broadcast(fabric, options).cct_seconds, 0.0);
}

TEST(EngineSelection, RunWorkloadRejectsFlowWithShards) {
  WorkloadConfig config;
  config.arrivals.jobs = 2;
  config.arrivals.rate_per_second = 1e4;
  config.arrivals.group_sizes = {4};
  config.arrivals.message_bytes = 64 * kKiB;
  config.arrivals.iterations = 1;
  config.fidelity = Fidelity::Flow;
  config.shards = 2;
  EXPECT_THROW((void)run_workload(Fabric::of(small_fat_tree()), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace peel
