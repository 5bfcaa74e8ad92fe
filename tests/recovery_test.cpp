// Mid-run link failure and recovery (§1 footnote: reliability is inherited
// from RDMA-style retransmission; we model the simplest form and verify the
// fabric layers degrade cleanly).
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/steiner/symmetric.h"
#include "src/topology/failures.h"

namespace peel {
namespace {

struct RecoveryFixture : ::testing::Test {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});  // 32 GPUs
  Fabric fabric = Fabric::of(ls);

  /// Finds the spine-leaf tree link a given optimal broadcast depends on.
  LinkId tree_spine_link(const MulticastTree& tree) const {
    for (LinkId l : tree.links()) {
      if (ls.topo.kind(ls.topo.link(l).src) == NodeKind::Core) return l;
    }
    return kInvalidLink;
  }
};

TEST_F(RecoveryFixture, BroadcastSurvivesMidRunLinkFailure) {
  EventQueue queue;
  SimConfig sim;
  sim.telemetry.enabled = true;  // byte-conservation audit below
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(1), RunnerOptions{});

  BroadcastRequest req;
  req.id = 1;
  req.source = ls.gpus[0];
  for (std::size_t i = 4; i < 32; ++i) req.destinations.push_back(ls.gpus[i]);
  req.message_bytes = 16 * kMiB;  // ~1.3 ms transfer
  const MulticastTree tree =
      optimal_leaf_spine_tree(ls, req.source, req.destinations,
                              req.id * 1000003ULL);  // the runner stripe-0 selector
  const LinkId doomed = tree_spine_link(tree);
  ASSERT_NE(doomed, kInvalidLink);

  runner.submit(Scheme::Optimal, req);

  // Fail the tree's spine->leaf link mid-transfer; a 100 us "detection
  // delay" later, the runner repairs the collective.
  queue.at(400 * kMicrosecond, [&] {
    ls.topo.fail_duplex(doomed);
    net.on_duplex_failed(doomed);
  });
  std::size_t rescheduled = 0;
  queue.at(500 * kMicrosecond, [&] {
    runner.on_topology_delta(TopologyDelta::link_down(doomed));
    rescheduled = runner.recover_collective(1);
  });
  queue.run();

  EXPECT_GT(net.segments_lost(), 0u);
  EXPECT_GT(rescheduled, 0u);
  ASSERT_TRUE(runner.records().front().finished);

  // Byte conservation across failure + recovery: the dead tree's stream is
  // lossy (under-delivery is its expected symptom), the recovery unicasts
  // are loss-free and must deliver exactly once per destination — and no
  // receiver anywhere may be credited a byte twice.
  ASSERT_NE(net.telemetry(), nullptr);
  EXPECT_TRUE(net.telemetry()->over_delivery_violations().empty());
  for (const std::string& v : net.telemetry()->conservation_violations()) {
    ADD_FAILURE() << v;
  }
  // Recovery costs time: slower than an undisturbed run on a fresh fabric.
  EventQueue q2;
  LeafSpine pristine = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  Fabric pfabric = Fabric::of(pristine);
  Network net3(pristine.topo, sim, q2);
  CollectiveRunner runner2(pfabric, net3, q2, Rng(1), RunnerOptions{});
  BroadcastRequest clean = req;
  runner2.submit(Scheme::Optimal, clean);
  q2.run();
  EXPECT_GT(runner.records().front().cct_seconds(),
            runner2.records().front().cct_seconds());
}

TEST_F(RecoveryFixture, RecoveryIsNoOpWhenNothingMissing) {
  EventQueue queue;
  SimConfig sim;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(2), RunnerOptions{});
  BroadcastRequest req;
  req.id = 1;
  req.source = ls.gpus[0];
  req.destinations = {ls.gpus[8], ls.gpus[16]};
  req.message_bytes = kMiB;
  runner.submit(Scheme::Optimal, req);
  queue.run();
  // Finished collectives are gone from the active set.
  EXPECT_EQ(runner.recover_collective(1), 0u);
  EXPECT_EQ(runner.recover_collective(999), 0u);  // unknown id
}

TEST_F(RecoveryFixture, LostSegmentsAreCounted) {
  EventQueue queue;
  SimConfig sim;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(3), RunnerOptions{});
  BroadcastRequest req;
  req.id = 1;
  req.source = ls.gpus[0];
  for (std::size_t i = 4; i < 20; ++i) req.destinations.push_back(ls.gpus[i]);
  req.message_bytes = 32 * kMiB;
  const MulticastTree tree =
      optimal_leaf_spine_tree(ls, req.source, req.destinations,
                              req.id * 1000003ULL);  // the runner stripe-0 selector
  const LinkId doomed = tree_spine_link(tree);
  runner.submit(Scheme::Optimal, req);
  queue.at(200 * kMicrosecond, [&] {
    ls.topo.fail_duplex(doomed);
    net.on_duplex_failed(doomed);
  });
  queue.run();
  // Without recovery the collective cannot finish and segments were lost.
  EXPECT_GT(net.segments_lost(), 0u);
  EXPECT_FALSE(runner.records().front().finished);
  EXPECT_EQ(runner.active_count(), 1u);
}

TEST_F(RecoveryFixture, WatchdogTurnsFailedLinkHangIntoDiagnosticFailure) {
  // Same failure as LostSegmentsAreCounted but with the stuck-flow watchdog
  // armed: instead of silently draining with an unfinished collective, the
  // run fails loudly with per-flow diagnostics naming the stuck broadcast.
  EventQueue queue;
  SimConfig sim;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(3), RunnerOptions{});
  BroadcastRequest req;
  req.id = 7;
  req.source = ls.gpus[0];
  for (std::size_t i = 4; i < 20; ++i) req.destinations.push_back(ls.gpus[i]);
  req.message_bytes = 32 * kMiB;
  const MulticastTree tree =
      optimal_leaf_spine_tree(ls, req.source, req.destinations,
                              req.id * 1000003ULL);  // the runner stripe-0 selector
  const LinkId doomed = tree_spine_link(tree);
  runner.submit(Scheme::Optimal, req);
  queue.at(200 * kMicrosecond, [&] {
    ls.topo.fail_duplex(doomed);
    net.on_duplex_failed(doomed);
  });
  queue.run();

  try {
    enforce_all_finished(runner, "event queue drained");
    FAIL() << "expected StuckFlowError";
  } catch (const StuckFlowError& e) {
    ASSERT_EQ(e.flows().size(), 1u);
    EXPECT_EQ(e.flows()[0].id, 7u);
    EXPECT_LT(e.flows()[0].delivered, e.flows()[0].expected);
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-flow watchdog"), std::string::npos);
    EXPECT_NE(what.find("collective 7"), std::string::npos);
  }
}

TEST_F(RecoveryFixture, WatchdogReportsEachPhaseOfAStuckAllReduce) {
  // A host-side tree AllReduce runs two phases: contributions combine up a
  // binary rank tree, then rank 0 multicasts each reduced piece. Cut off
  // mid-run, the report says how far each phase got.
  EventQueue queue;
  SimConfig sim;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(5), RunnerOptions{});
  AllReduceRequest req;
  req.id = 9;
  for (std::size_t i = 0; i < 32; i += 4) req.members.push_back(ls.gpus[i]);
  req.buffer_bytes = 32 * kMiB;
  runner.submit_allreduce(Scheme::Optimal, req);
  queue.run_until(2 * kMillisecond);

  try {
    enforce_all_finished(runner, "deadline 2ms exceeded");
    FAIL() << "expected StuckFlowError";
  } catch (const StuckFlowError& e) {
    ASSERT_EQ(e.flows().size(), 1u);
    const StuckFlowInfo& f = e.flows()[0];
    ASSERT_EQ(f.phases.size(), 2u);
    // 7 tree edges up and 7 receivers down, each owed all 8 pieces.
    EXPECT_EQ(f.phases[0].expected, 56u);
    EXPECT_EQ(f.phases[1].expected, 56u);
    EXPECT_EQ(f.phases[0].expected + f.phases[1].expected, f.expected);
    EXPECT_EQ(f.phases[0].delivered + f.phases[1].delivered, f.delivered);
    EXPECT_LT(f.phases[1].delivered, f.phases[1].expected);
    const std::string what = e.what();
    EXPECT_NE(what.find("; phase 0: "), std::string::npos) << what;
    EXPECT_NE(what.find(", phase 1: "), std::string::npos) << what;
  }
}

TEST_F(RecoveryFixture, RingRecoversWithoutForwardingConfusion) {
  // Kill a link under a ring stream, recover, and verify the scheme's
  // forwarding hooks don't fire for recovery deliveries (no crash, full
  // completion).
  EventQueue queue;
  SimConfig sim;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(4), RunnerOptions{});
  BroadcastRequest req;
  req.id = 1;
  req.source = ls.gpus[0];
  for (std::size_t i = 1; i < 24; ++i) req.destinations.push_back(ls.gpus[i]);
  req.message_bytes = 8 * kMiB;
  runner.submit(Scheme::Ring, req);

  const auto spine_links = duplex_spine_leaf_links(ls.topo);
  const LinkId doomed = spine_links[3];
  queue.at(300 * kMicrosecond, [&] {
    ls.topo.fail_duplex(doomed);
    net.on_duplex_failed(doomed);
  });
  queue.at(600 * kMicrosecond, [&] {
    runner.on_topology_delta(TopologyDelta::link_down(doomed));
    runner.recover_collective(1);
  });
  // A second recovery pass picks up anything the first one raced with; the
  // topology did not change again, so no new delta is needed.
  queue.at(5 * kMillisecond, [&] { runner.recover_collective(1); });
  queue.run();
  EXPECT_TRUE(runner.records().front().finished);
}

TEST_F(RecoveryFixture, InNetRecoveryWaitsOutAnUnreachableMember) {
  // An in-network AllReduce with a member cut off has no live tree to re-run
  // its reduction over, and the root never held the combined pieces, so
  // nothing can be re-sent per receiver either: the pass reschedules nothing
  // and opens nothing. Once the link is back, the next pass re-runs the
  // whole fused reduction and the collective finishes.
  EventQueue queue;
  SimConfig sim;
  sim.telemetry.enabled = true;
  Network net(ls.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(6), RunnerOptions{});
  AllReduceRequest req;
  req.id = 1;
  for (std::size_t i = 0; i < 32; i += 3) req.members.push_back(ls.gpus[i]);
  req.buffer_bytes = 8 * kMiB;
  const NodeId host = ls.topo.host_of(req.members.back());
  const LinkId nic = ls.topo.find_link(host, ls.topo.tor_of(host));
  runner.submit_allreduce(Scheme::InNet, req);

  queue.at(20 * kMicrosecond, [&] {
    ls.topo.fail_duplex(nic);
    net.on_duplex_failed(nic);
  });
  std::size_t while_cut = 1;
  std::size_t streams_while_cut = 0;
  queue.at(120 * kMicrosecond, [&] {
    runner.on_topology_delta(TopologyDelta::link_down(nic));
    while_cut = runner.recover_collective(1);
    streams_while_cut = runner.stuck_flows().front().streams.size();
  });
  std::size_t after_repair = 0;
  queue.at(2 * kMillisecond, [&] {
    ls.topo.restore_duplex(nic);
    net.on_duplex_restored(nic);
    runner.on_topology_delta(TopologyDelta::link_up(nic));
    after_repair = runner.recover_collective(1);
  });
  queue.run();

  EXPECT_EQ(while_cut, 0u);
  EXPECT_EQ(streams_while_cut, 1u);  // the original fused stream alone
  EXPECT_EQ(after_repair, req.members.size() * 8);  // every piece, to everyone
  EXPECT_TRUE(runner.records().front().finished);
  ASSERT_NE(net.telemetry(), nullptr);
  EXPECT_TRUE(net.telemetry()->over_delivery_violations().empty());
  for (const std::string& v : net.telemetry()->conservation_violations()) {
    ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace peel
