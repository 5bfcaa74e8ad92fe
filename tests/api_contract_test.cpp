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
//
// The StreamContract cases pin DataPlane::open_stream's one contract on the
// solo, sharded and flow engines: what it rejects, that a rejection leaves
// the engine unchanged, and what it accepts for the audit to report.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/workload.h"
#include "src/routing/topology_events.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
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

/// Hand-built specs on the k=4 fat-tree: host h0 carries g0..g3, host h1
/// carries g4..g7, and both hang off ToR t0.
struct ContractSpecs {
  const FatTree& ft = small_fat_tree();
  const Topology& topo = ft.topo;
  NodeId g0 = ft.gpus[0], g1 = ft.gpus[1], g4 = ft.gpus[4], g5 = ft.gpus[5];
  NodeId far = ft.gpus[8];  ///< under another ToR; no spec below reaches it
  NodeId h0 = ft.hosts[0], h1 = ft.hosts[1];
  NodeId t0 = ft.tor_at(0, 0);

  [[nodiscard]] LinkId link(NodeId a, NodeId b) const {
    return topo.find_link(a, b);
  }
  /// g0 -> h0 -> {g1, t0}; t0 -> h1 -> {g4, g5}.
  [[nodiscard]] StreamSpec multicast() const {
    StreamSpec s;
    s.source = g0;
    s.forward[g0] = {link(g0, h0)};
    s.forward[h0] = {link(h0, g1), link(h0, t0)};
    s.forward[t0] = {link(t0, h1)};
    s.forward[h1] = {link(h1, g4), link(h1, g5)};
    s.receivers = {g1, g4, g5};
    return s;
  }
  /// An in-network reduce pivoting at t0: g0, g1 and g4 contribute up the
  /// mirror of t0 -> {h0 -> {g0, g1}, h1 -> {g4}} and receive the result.
  [[nodiscard]] StreamSpec reduce() const {
    StreamSpec s;
    s.source = t0;
    s.forward[t0] = {link(t0, h0), link(t0, h1)};
    s.forward[h0] = {link(h0, g0), link(h0, g1)};
    s.forward[h1] = {link(h1, g4)};
    s.receivers = {g0, g1, g4};
    s.contributors = {g0, g1, g4};
    return s;
  }
};

/// Runs `check` once per engine, each on a fresh engine over the same fabric.
using EngineCheck =
    std::function<void(DataPlane&, const std::function<void()>& run)>;

void for_each_engine(const EngineCheck& check) {
  const Topology& topo = small_fat_tree().topo;
  const SimConfig cfg;
  {
    SCOPED_TRACE("solo");
    EventQueue queue;
    Network net(topo, cfg, queue);
    check(net, [&] { queue.run(); });
  }
  {
    SCOPED_TRACE("sharded, 2 workers");
    ShardedNetwork net(topo, cfg, 2);
    check(net, [&] { net.run(); });
  }
  {
    SCOPED_TRACE("flow");
    EventQueue queue;
    FlowNetwork net(topo, cfg, queue);
    check(net, [&] { queue.run(); });
  }
}

TEST(StreamContract, MalformedSpecsThrowAndLeaveTheEngineUnchanged) {
  const ContractSpecs c;
  struct Case {
    const char* name;
    std::function<StreamSpec()> spec;
  };
  const std::vector<Case> cases = {
      {"out-link id past link_count()",
       [&] {
         StreamSpec s = c.multicast();
         s.forward[c.h0].push_back(static_cast<LinkId>(c.topo.link_count()));
         return s;
       }},
      {"receiver id past node_count()",
       [&] {
         StreamSpec s = c.multicast();
         s.receivers.push_back(static_cast<NodeId>(c.topo.node_count()));
         return s;
       }},
      {"out-link listed under a node it does not leave",
       [&] {
         StreamSpec s = c.multicast();
         s.forward[c.t0].push_back(c.link(c.h1, c.g4));
         return s;
       }},
      {"multicast source with no out-link",
       [&] {
         StreamSpec s = c.multicast();
         s.forward.erase(c.g0);
         return s;
       }},
      {"reduce contributor on an interior node",
       [&] {
         StreamSpec s = c.reduce();
         s.contributors.push_back(c.h0);
         return s;
       }},
      {"reduce contributor outside the tree",
       [&] {
         StreamSpec s = c.reduce();
         s.contributors.push_back(c.far);
         return s;
       }},
      {"reduce tree rooted away from spec.source",
       [&] {
         StreamSpec s = c.reduce();
         s.source = c.h0;
         return s;
       }},
      {"multicast forward map with a cycle through the source",
       [&] {
         StreamSpec s = c.multicast();
         s.forward[c.h0].push_back(c.link(c.h0, c.g0));
         return s;
       }},
      {"reduce forward map that is not a tree",
       [&] {
         StreamSpec s = c.reduce();
         s.forward[c.g1] = {c.link(c.g1, c.h0)};
         return s;
       }},
  };
  for (const Case& bad : cases) {
    SCOPED_TRACE(bad.name);
    for_each_engine([&](DataPlane& dp, const std::function<void()>& run) {
      std::size_t delivered = 0;
      dp.set_delivery_handler([&](const DeliveryEvent&) { ++delivered; });
      const StreamId first = dp.open_stream(c.multicast());
      EXPECT_THROW((void)dp.open_stream(bad.spec()), std::invalid_argument);
      // The rejection consumed no StreamId, and the engine still delivers.
      const StreamId next = dp.open_stream(c.reduce());
      EXPECT_EQ(next, first + 1);
      dp.send_chunk(first, 0, 64 * kKiB);
      dp.send_chunk(next, 0, 64 * kKiB);
      run();
      EXPECT_EQ(delivered, 6u);
      EXPECT_EQ(dp.stream_diagnostic(first).incomplete_deliveries, 0u);
      EXPECT_EQ(dp.stream_diagnostic(next).incomplete_deliveries, 0u);
    });
  }
}

TEST(StreamContract, UnreachedReceiverIsAcceptedAndReportedIncomplete) {
  // Legal but wrong: the spec opens everywhere, the reached receivers get
  // their bytes, and the stuck-flow diagnostic reports the one that cannot.
  const ContractSpecs c;
  StreamSpec spec = c.multicast();
  spec.receivers.push_back(c.far);
  for_each_engine([&](DataPlane& dp, const std::function<void()>& run) {
    std::size_t delivered = 0;
    dp.set_delivery_handler([&](const DeliveryEvent&) { ++delivered; });
    const StreamId s = dp.open_stream(spec);
    dp.send_chunk(s, 0, 64 * kKiB);
    run();
    EXPECT_EQ(delivered, 3u);
    EXPECT_GT(dp.stream_diagnostic(s).incomplete_deliveries, 0u);
  });
}

TEST(StreamContract, ChunkIndexIsSentAtMostOncePerStream) {
  // One target per chunk and stream: a repeat throws and consumes nothing,
  // while a chunk cancelled before any of it was sent may be sent again.
  const ContractSpecs c;
  for_each_engine([&](DataPlane& dp, const std::function<void()>& run) {
    std::size_t delivered = 0;
    dp.set_delivery_handler([&](const DeliveryEvent&) { ++delivered; });
    const StreamId s = dp.open_stream(c.multicast());
    dp.send_chunk(s, 0, 256 * kKiB);
    EXPECT_THROW(dp.send_chunk(s, 0, 256 * kKiB), std::logic_error);
    run();
    EXPECT_EQ(delivered, 3u);
    EXPECT_THROW(dp.send_chunk(s, 0, 64 * kKiB), std::logic_error);

    dp.send_chunk(s, 1, 64 * kKiB);
    EXPECT_EQ(dp.cancel_unsent_chunks(s), std::vector<int>{1});
    dp.send_chunk(s, 1, 64 * kKiB);
    run();
    EXPECT_EQ(delivered, 6u);
    EXPECT_EQ(dp.stream_diagnostic(s).incomplete_deliveries, 0u);
  });
}

}  // namespace
}  // namespace peel
