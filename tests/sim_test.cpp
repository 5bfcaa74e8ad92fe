#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/sim/dcqcn.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/telemetry.h"
#include "src/topology/topology.h"

namespace peel {
namespace {

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.at(20, [&] { order.push_back(2); });
  q.at(10, [&] { order.push_back(1); });
  q.at(20, [&] { order.push_back(3); });  // same time: scheduling order
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, RejectsPast) {
  EventQueue q;
  q.at(10, [] {});
  q.step();
  EXPECT_THROW(q.at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RejectsPastWithDiagnosticMessage) {
  EventQueue q;
  q.at(10, [] {});
  q.step();
  try {
    q.at(5, [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t=5"), std::string::npos) << what;
    EXPECT_NE(what.find("now=10"), std::string::npos) << what;
  }
}

TEST(EventQueue, SchedulingExactlyAtNowIsLegal) {
  EventQueue q;
  int fired = 0;
  q.at(10, [&] {
    // t == now() is the documented boundary: events "must be >= now()".
    q.at(q.now(), [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, RunUntilRunsEventsExactlyAtBoundary) {
  EventQueue q;
  std::vector<int> fired;
  q.at(10, [&] { fired.push_back(1); });
  q.at(20, [&] { fired.push_back(2); });  // exactly at the boundary: runs
  q.at(21, [&] { fired.push_back(3); });  // past the boundary: does not
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilBoundaryEventCanScheduleAtBoundary) {
  // An event at exactly t that schedules another event at t: both run —
  // run_until(t) is inclusive of everything stamped <= t.
  EventQueue q;
  int fired = 0;
  q.at(20, [&] {
    ++fired;
    q.at(20, [&] { ++fired; });
  });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilThenSchedulingBeforeClockThrows) {
  // run_until advances the clock to t even with no events; the past is then
  // rejected relative to the advanced clock.
  EventQueue q;
  q.run_until(100);
  EXPECT_EQ(q.now(), 100);
  EXPECT_THROW(q.at(99, [] {}), std::logic_error);
  q.at(100, [] {});  // boundary stays legal
}

TEST(EventQueue, RunUntilAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.at(10, [&] { ++fired; });
  q.at(30, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 20);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanSchedule) {
  EventQueue q;
  int hits = 0;
  q.at(1, [&] {
    ++hits;
    q.after(5, [&] { ++hits; });
  });
  q.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(q.now(), 6);
}

TEST(EventQueue, SimEventsInterleaveWithActionsInSchedulingOrder) {
  // The tagged fast path and boxed Actions share one heap and one sequence
  // counter, so equal-time events of either flavor fire in scheduling order.
  struct Recorder final : SimEventSink {
    std::vector<int>* order;
    void on_sim_event(const SimEvent& ev) override { order->push_back(ev.a); }
  };
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.order = &order;
  q.bind_sink(&sink);
  q.at(10, SimEvent{SimEventKind::Pump, false, 1});
  q.at(10, [&] { order.push_back(2); });
  q.at(10, SimEvent{SimEventKind::Arrive, false, 3});
  q.at(5, [&] { order.push_back(0); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.processed(), 4u);
}

TEST(EventQueue, SimEventWithoutSinkThrows) {
  EventQueue q;
  q.at(1, SimEvent{SimEventKind::Pump, false, 0});
  EXPECT_THROW(q.run(), std::logic_error);
}

TEST(SimConfig, ValidateAcceptsDefaultsAndStepEcn) {
  SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  // kmax == kmin is the legal "step ECN" band: certainty marking at the
  // threshold, nothing below it.
  cfg.ecn_kmin = cfg.ecn_kmax = 64 * kKiB;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, ValidateRejectsBadConfigs) {
  const auto rejects = [](auto&& mutate) {
    SimConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  rejects([](SimConfig& c) { c.segment_bytes = 0; });
  rejects([](SimConfig& c) { c.switch_buffer_bytes = -1; });
  rejects([](SimConfig& c) { c.ecn_kmax = c.ecn_kmin - 1; });
  rejects([](SimConfig& c) { c.ecn_kmin = -5; });
  rejects([](SimConfig& c) { c.ecn_pmax = 1.5; });
  rejects([](SimConfig& c) { c.pfc_hysteresis = -1; });
  rejects([](SimConfig& c) { c.pfc_pause_free_fraction = -0.1; });
  rejects([](SimConfig& c) { c.telemetry.sample_interval = -1; });
}

// --- Fixtures ---------------------------------------------------------------

struct ChainFixture {
  Topology topo;
  NodeId a, sw, b;
  LinkId l0, l1;

  ChainFixture() {
    a = topo.add_node(Node{NodeKind::Host, 0, 0});
    sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
    b = topo.add_node(Node{NodeKind::Host, 0, 1});
    l0 = topo.add_duplex_link(a, sw, 100_gbps, 100);
    l1 = topo.add_duplex_link(sw, b, 100_gbps, 100);
  }

  StreamSpec spec() const {
    StreamSpec s;
    s.source = a;
    s.links = {l0, l1};
    s.receivers = {b};
    return s;
  }
};

TEST(Network, SingleTransferTiming) {
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.congestion_control = false;
  Network net(f.topo, cfg, q);

  SimTime done = -1;
  net.set_delivery_handler([&](const DeliveryEvent& ev) {
    EXPECT_EQ(ev.receiver, f.b);
    EXPECT_EQ(ev.chunk, 0);
    done = q.now();
  });
  const StreamId s = net.open_stream(f.spec());
  const Bytes msg = 1 * kMiB;
  net.send_chunk(s, 0, msg);
  q.run();

  ASSERT_GE(done, 0);
  // Lower bound: pure serialization of the message at 12.5 B/ns.
  const auto serialization = static_cast<SimTime>(msg / 12.5);
  EXPECT_GT(done, serialization);
  // Upper bound: pipelined store-and-forward adds ~1 segment per extra hop
  // plus propagation and rounding.
  const SimTime segment_time = (100_gbps).tx_time(cfg.segment_bytes);
  EXPECT_LT(done, serialization + 2 * (segment_time + 100) + 64);
}

TEST(Network, BytesAccounting) {
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.congestion_control = false;
  Network net(f.topo, cfg, q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 256 * kKiB);
  q.run();
  EXPECT_EQ(net.link_bytes(f.l0), 256 * kKiB);
  EXPECT_EQ(net.link_bytes(f.l1), 256 * kKiB);
  EXPECT_EQ(net.total_bytes_serialized(), 512 * kKiB);
}

TEST(Network, MulticastReplicatesOncePerLink) {
  // Star: src host -> tor -> 3 hosts.
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const LinkId up = topo.add_duplex_link(src, sw, 100_gbps, 100);
  std::vector<NodeId> sinks;
  std::vector<LinkId> down;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(topo.add_node(Node{NodeKind::Host, 0, i + 1}));
    down.push_back(topo.add_duplex_link(sw, sinks.back(), 100_gbps, 100));
  }
  EventQueue q;
  SimConfig cfg;
  Network net(topo, cfg, q);
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++deliveries; });

  StreamSpec spec;
  spec.source = src;
  spec.links = {up};
  spec.links.insert(spec.links.end(), down.begin(), down.end());
  spec.receivers = sinks;
  const StreamId s = net.open_stream(spec);
  net.send_chunk(s, 0, 128 * kKiB);
  q.run();

  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(net.link_bytes(up), 128 * kKiB);  // single copy on the shared link
  for (LinkId l : down) EXPECT_EQ(net.link_bytes(l), 128 * kKiB);
}

TEST(Network, NonReceiverGetsBytesButNoDelivery) {
  ChainFixture f;
  // Add a redundant host hanging off the switch.
  const NodeId extra = f.topo.add_node(Node{NodeKind::Host, 0, 2});
  const LinkId lx = f.topo.add_duplex_link(f.sw, extra, 100_gbps, 100);
  EventQueue q;
  Network net(f.topo, SimConfig{}, q);
  std::vector<NodeId> delivered_to;
  net.set_delivery_handler(
      [&](const DeliveryEvent& ev) { delivered_to.push_back(ev.receiver); });
  StreamSpec spec = f.spec();
  spec.links.push_back(lx);  // over-covered copy
  const StreamId s = net.open_stream(spec);
  net.send_chunk(s, 0, 64 * kKiB);
  q.run();
  EXPECT_EQ(delivered_to, (std::vector<NodeId>{f.b}));
  EXPECT_EQ(net.link_bytes(lx), 64 * kKiB);  // wasted bandwidth is charged
}

TEST(Network, IncastBuildsQueueAndMarks) {
  // Two senders converge on one sink: the sink-facing link saturates.
  Topology topo;
  const NodeId s1 = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId s2 = topo.add_node(Node{NodeKind::Host, 0, 1});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 2});
  const LinkId u1 = topo.add_duplex_link(s1, sw, 100_gbps, 100);
  const LinkId u2 = topo.add_duplex_link(s2, sw, 100_gbps, 100);
  const LinkId d = topo.add_duplex_link(sw, sink, 100_gbps, 100);

  EventQueue q;
  SimConfig cfg;
  Network net(topo, cfg, q);
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++deliveries; });

  auto make = [&](NodeId src, LinkId up) {
    StreamSpec spec;
    spec.source = src;
    spec.links = {up, d};
    spec.receivers = {sink};
    return net.open_stream(spec);
  };
  const StreamId a = make(s1, u1);
  const StreamId b = make(s2, u2);
  net.send_chunk(a, 0, 4 * kMiB);
  net.send_chunk(b, 0, 4 * kMiB);
  q.run();

  EXPECT_EQ(deliveries, 2);
  EXPECT_GT(net.segments_marked(), 0u);
  // DCQCN reacted on at least one flow.
  EXPECT_GT(net.stream_cc(a).cnps_seen() + net.stream_cc(b).cnps_seen(), 0u);
}

TEST(Network, PfcPausesAndStaysLossless) {
  // Tiny switch buffer forces PFC while a fast link feeds a slow one.
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 1});
  const LinkId fast = topo.add_duplex_link(src, sw, 400_gbps, 100);
  topo.add_duplex_link(sw, sink, 100_gbps, 100);

  EventQueue q;
  SimConfig cfg;
  cfg.switch_buffer_bytes = 256 * kKiB;
  cfg.congestion_control = false;  // isolate PFC from rate control
  Network net(topo, cfg, q);
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++deliveries; });
  StreamSpec spec;
  spec.source = src;
  spec.links = {fast, topo.find_link(sw, sink)};
  spec.receivers = {sink};
  const StreamId s = net.open_stream(spec);
  for (int c = 0; c < 4; ++c) net.send_chunk(s, c, 2 * kMiB);
  q.run();

  EXPECT_EQ(deliveries, 4);
  EXPECT_GT(net.pfc_pauses(), 0u);
  EXPECT_EQ(net.total_bytes_serialized(),
            2 * (4 * 2 * kMiB));  // nothing lost, both hops carried it all
}

TEST(Network, LinkFailureClosesPfcPauseSpan) {
  // Regression: a duplex failure cleared a paused direction's PFC state
  // without closing its telemetry span, so pfc_pause_time and the sampled
  // paused_links counted the dead link through the whole outage, and the
  // span closed only at some resume after the repair.
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 1});
  const LinkId fast = topo.add_duplex_link(src, sw, 400_gbps, 100);
  topo.add_duplex_link(sw, sink, 100_gbps, 100);

  EventQueue q;
  SimConfig cfg;
  cfg.switch_buffer_bytes = 256 * kKiB;
  cfg.congestion_control = false;
  cfg.telemetry.enabled = true;
  cfg.telemetry.record_trace = true;
  cfg.telemetry.sample_interval = 5 * kMicrosecond;
  Network net(topo, cfg, q);
  StreamSpec spec;
  spec.source = src;
  spec.links = {fast, topo.find_link(sw, sink)};
  spec.receivers = {sink};
  const StreamId s = net.open_stream(spec);
  for (int c = 0; c < 4; ++c) net.send_chunk(s, c, 2 * kMiB);

  // The switch pauses the fast link at ~5.3 us; fail it just after that,
  // repair it 100 us later, then drain.
  const SimTime down = 5'400;
  const SimTime up = down + 100 * kMicrosecond;
  q.run_until(down);
  ASSERT_GT(net.pfc_pauses(), 0u);
  topo.fail_duplex(fast);
  net.on_duplex_failed(fast);
  q.run_until(up);
  topo.restore_duplex(fast);
  net.on_duplex_restored(fast);
  q.run();

  const TelemetrySummary sum = net.telemetry()->summary(q.now());
  ASSERT_FALSE(sum.pauses.empty());
  EXPECT_EQ(sum.pauses.front().link, fast);
  EXPECT_LT(sum.pauses.front().begin, down);
  EXPECT_EQ(sum.pauses.front().end, down) << "the span must close at failure";
  for (const PauseSpan& p : sum.pauses) {
    EXPECT_TRUE(p.end <= down || p.begin >= up)
        << "pause span [" << p.begin << ", " << p.end << "] spans the outage";
  }
  int outage_samples = 0;
  int paused_in_outage = 0;
  for (const QueueSample& qs : sum.samples) {
    if (qs.t <= down || qs.t >= up) continue;
    ++outage_samples;
    paused_in_outage += qs.paused_links;
  }
  EXPECT_GT(outage_samples, 0);
  EXPECT_EQ(paused_in_outage, 0) << "samples counted the dead link as paused";
}

// Herd: K streams share one source host and its 100G up-link, 4 x 1 MiB
// chunks each, behind a 1 MiB buffer. The host buffer fills, every pump
// blocks, and each segment the up-link drains wakes all K waiters at once.
struct HerdResult {
  std::uint64_t delivery_hash = 0;  ///< over (time, stream, chunk)
  SimTime drained = 0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
};

HerdResult run_herd(int k) {
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.congestion_control = false;
  cfg.switch_buffer_bytes = 1 * kMiB;
  Network net(f.topo, cfg, q);
  HerdResult r;
  r.delivery_hash = 14695981039346656037ULL;  // FNV-1a offset basis
  auto mix = [&](std::uint64_t v) {
    r.delivery_hash = (r.delivery_hash ^ v) * 1099511628211ULL;
  };
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent& ev) {
    mix(static_cast<std::uint64_t>(q.now()));
    mix(static_cast<std::uint64_t>(ev.stream));
    mix(static_cast<std::uint64_t>(ev.chunk));
    ++deliveries;
  });
  for (int i = 0; i < k; ++i) {
    const StreamId s = net.open_stream(f.spec());
    for (int c = 0; c < 4; ++c) net.send_chunk(s, c, 1 * kMiB);
  }
  q.run();
  EXPECT_EQ(deliveries, 4 * k);
  r.drained = q.now();
  r.events = q.processed();
  r.segments = net.segments_serialized();
  return r;
}

TEST(Network, BackloggedSourceWakesWithoutAnEventPerWaiter) {
  // Regression: every drained segment scheduled one Pump per blocked
  // injector, and all but the first blocked again at once, so the herd ran
  // ~13 events per serialized segment. One batched wake keeps it O(1) per
  // segment, and the deliveries (pinned below) stay exactly as they were.
  const HerdResult herd = run_herd(64);
  EXPECT_EQ(herd.segments, 8'192u);
  EXPECT_EQ(herd.delivery_hash, 0x83acea2b86c6fca1ULL);
  EXPECT_EQ(herd.drained, 21'480'771);
  EXPECT_LE(herd.events, 3 * herd.segments);

  // A lone stream never blocks: one Pump per segment plus a FinishTx and an
  // Arrive per hop.
  EXPECT_EQ(run_herd(1).events, 320u);
}

TEST(Network, CancelUnsentChunks) {
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  Network net(f.topo, cfg, q);
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++deliveries; });
  const StreamId s = net.open_stream(f.spec());
  for (int c = 0; c < 8; ++c) net.send_chunk(s, c, 1 * kMiB);
  // Let roughly two chunks through, then cancel the rest.
  q.run_until(200 * kMicrosecond);
  const auto cancelled = net.cancel_unsent_chunks(s);
  q.run();
  EXPECT_FALSE(cancelled.empty());
  EXPECT_LT(cancelled.size(), 8u);
  EXPECT_EQ(deliveries, 8 - static_cast<int>(cancelled.size()));
  // Cancelled chunks can be re-sent later (fresh stream).
  const StreamId s2 = net.open_stream(f.spec());
  for (int c : cancelled) net.send_chunk(s2, c, 1 * kMiB);
  q.run();
  EXPECT_EQ(deliveries, 8);
}

TEST(Network, CloseStreamSilencesDeliveries) {
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, SimConfig{}, q);
  int deliveries = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++deliveries; });
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 64 * kKiB);
  net.close_stream(s);
  q.run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_THROW(net.send_chunk(s, 1, 64), std::logic_error);
}

/// Fast first hop feeding a slow second hop: a standing queue forms at the
/// switch, so ECN marking has something to mark.
struct BottleneckFixture {
  Topology topo;
  NodeId a, sw, b;
  LinkId l0, l1;

  BottleneckFixture() {
    a = topo.add_node(Node{NodeKind::Host, 0, 0});
    sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
    b = topo.add_node(Node{NodeKind::Host, 0, 1});
    l0 = topo.add_duplex_link(a, sw, 400_gbps, 100);
    l1 = topo.add_duplex_link(sw, b, 100_gbps, 100);
  }

  StreamSpec spec(CnpMode mode) const {
    StreamSpec s;
    s.source = a;
    s.links = {l0, l1};
    s.receivers = {b};
    s.cnp_mode = mode;
    return s;
  }
};

TEST(Network, MarkedSegmentsReachReceiverAndTriggerCnps) {
  // The CE bit set at the bottleneck queue must survive forwarding: the
  // receiver's CNPs show up at the sender's congestion state.
  BottleneckFixture f;
  EventQueue q;
  SimConfig cfg;
  Network net(f.topo, cfg, q);
  const StreamId s = net.open_stream(f.spec(CnpMode::Unthrottled));
  net.send_chunk(s, 0, 8 * kMiB);
  q.run();
  EXPECT_GT(net.segments_marked(), 0u);
  EXPECT_GT(net.stream_cc(s).cnps_seen(), 0u);
  EXPECT_GT(net.stream_cc(s).reactions(), 0u);
}

TEST(Network, ReceiverTimerSuppressesCnps) {
  // Same marking pressure, two CNP policies: the receiver-side 50 us timer
  // must deliver fewer CNPs to the sender than unthrottled signaling.
  auto cnps_with = [&](CnpMode mode) {
    BottleneckFixture f;
    EventQueue q;
    SimConfig cfg;
    cfg.ecn_kmin = 0;
    cfg.ecn_kmax = 1;  // mark aggressively so the policies separate clearly
    Network net(f.topo, cfg, q);
    const StreamId s = net.open_stream(f.spec(mode));
    net.send_chunk(s, 0, 8 * kMiB);
    q.run();
    return net.stream_cc(s).cnps_seen();
  };
  const auto timered = cnps_with(CnpMode::ReceiverTimer);
  const auto unthrottled = cnps_with(CnpMode::Unthrottled);
  EXPECT_GT(unthrottled, 0u);
  EXPECT_LT(timered, unthrottled);
}

/// One 8 MiB multicast through BottleneckFixture with every queued segment
/// marked: what the run delivered, when it drained, and what it cost.
struct CnpRun {
  std::uint64_t delivery_hash = 0;
  SimTime drained = 0;
  std::uint64_t events = 0;
  std::uint64_t reactions = 0;
  std::uint64_t cnps_seen = 0;
};

CnpRun run_marked(CnpMode mode) {
  BottleneckFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.ecn_kmin = 0;
  cfg.ecn_kmax = 1;
  Network net(f.topo, cfg, q);
  CnpRun r;
  r.delivery_hash = 14695981039346656037ULL;  // FNV-1a offset basis
  net.set_delivery_handler([&](const DeliveryEvent& ev) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(q.now()),
                                  static_cast<std::uint64_t>(ev.chunk)}) {
      r.delivery_hash = (r.delivery_hash ^ v) * 1099511628211ULL;
    }
  });
  const StreamId s = net.open_stream(f.spec(mode));
  for (int c = 0; c < 8; ++c) net.send_chunk(s, c, 1 * kMiB);
  q.run();
  r.drained = q.now();
  r.events = q.processed();
  r.reactions = net.stream_cc(s).reactions();
  r.cnps_seen = net.stream_cc(s).cnps_seen();
  return r;
}

TEST(Network, GuardSwallowedCnpsAreNotScheduled) {
  // Under the sender guard, a CNP that arrives within the guard interval of
  // the last reaction changes nothing, so the single-queue engine decides
  // that when the CNP is posted and never schedules it. Deliveries, the
  // drain clock and the controller's counters are pinned to what the run
  // gave when every CNP was scheduled; only the event count falls.
  const CnpRun guard = run_marked(CnpMode::SenderGuard);
  EXPECT_EQ(guard.delivery_hash, 0xd4f48fd994cc5c88ULL);
  EXPECT_EQ(guard.drained, 1'747'607);
  EXPECT_EQ(guard.reactions, 6u);
  EXPECT_EQ(guard.cnps_seen, 51u);
  EXPECT_LT(guard.events, 691u);  // every CNP scheduled: 691 events

  // The other modes react to every CNP, so every one is still scheduled.
  EXPECT_EQ(run_marked(CnpMode::ReceiverTimer).events, 646u);
  EXPECT_EQ(run_marked(CnpMode::Unthrottled).events, 658u);
}

TEST(Network, ConstructorRejectsInvalidConfig) {
  // A bad config must fail loudly at setup, not misbehave mid-run.
  ChainFixture f;
  EventQueue q;
  const auto rejects = [&](auto&& mutate) {
    SimConfig cfg;
    mutate(cfg);
    EXPECT_THROW(Network(f.topo, cfg, q), std::invalid_argument);
  };
  rejects([](SimConfig& c) { c.ecn_kmax = c.ecn_kmin - 1; });  // inverted band
  rejects([](SimConfig& c) { c.segment_bytes = 0; });
  // DCQCN: a timer <= 0 would spin the lazy recovery loop forever on the
  // first rate() call, and a zero rate floor would make pump divide by zero.
  rejects([](SimConfig& c) { c.dcqcn.alpha_timer = 0; });
  rejects([](SimConfig& c) { c.dcqcn.increase_timer = -1; });
  rejects([](SimConfig& c) { c.dcqcn.g = -0.1; });
  rejects([](SimConfig& c) { c.dcqcn.g = 1.5; });
  rejects([](SimConfig& c) { c.dcqcn.min_rate_fraction = 0.0; });
  rejects([](SimConfig& c) { c.dcqcn.min_rate_fraction = 1.5; });
  rejects([](SimConfig& c) { c.dcqcn.additive_increase_fraction = -0.001; });
  // The edges of each legal range still build.
  SimConfig edges;
  edges.dcqcn.g = 1.0;
  edges.dcqcn.min_rate_fraction = 1.0;
  edges.dcqcn.additive_increase_fraction = 0.0;
  EXPECT_NO_THROW(Network(f.topo, edges, q));
}

TEST(Network, StepEcnMarksEverySegmentAtThreshold) {
  // kmin == kmax == 0: the degenerate step band marks every segment with
  // certainty and must never reach the RED interpolation's divide.
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.ecn_kmin = 0;
  cfg.ecn_kmax = 0;
  Network net(f.topo, cfg, q);
  bool delivered = false;
  net.set_delivery_handler([&](const DeliveryEvent&) { delivered = true; });
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 256 * kKiB);
  q.run();
  EXPECT_TRUE(delivered);
  // Four 64 KiB segments, each marked once at its first enqueue.
  EXPECT_EQ(net.segments_marked(), 4u);
}

TEST(Network, PfcResumesWhenHysteresisExceedsPauseThreshold) {
  // Regression: with pfc_hysteresis larger than the pause threshold the
  // resume level went negative, so a source pump blocked on a full buffer
  // was never re-armed and the transfer silently stalled. The resume level
  // is clamped at zero: fully drained always resumes.
  BottleneckFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.congestion_control = false;
  cfg.switch_buffer_bytes = 256 * kKiB;  // pause threshold ~228 KiB
  cfg.pfc_hysteresis = 1 * kMiB;         // larger than the pause threshold
  Network net(f.topo, cfg, q);
  bool delivered = false;
  net.set_delivery_handler([&](const DeliveryEvent& ev) {
    if (ev.chunk == 0) delivered = true;
  });
  const StreamId s = net.open_stream(f.spec(CnpMode::ReceiverTimer));
  net.send_chunk(s, 0, 8 * kMiB);
  q.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(net.pfc_pauses(), 0u);
  EXPECT_EQ(net.stream_diagnostic(s).incomplete_deliveries, 0u);
}

TEST(Network, RejectsNegativeChunkIndex) {
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, SimConfig{}, q);
  const StreamId s = net.open_stream(f.spec());
  EXPECT_THROW(net.send_chunk(s, -1, 64), std::invalid_argument);
}

// Deliver events are the sharded engine's control-queue replay; a Network
// queue never schedules one, so firing one there is a wiring bug.
TEST(Network, RejectsADeliverEvent) {
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, SimConfig{}, q);
  SimEvent ev;
  ev.kind = SimEventKind::Deliver;
  EXPECT_THROW(net.on_sim_event(ev), std::logic_error);
}

TEST(Network, ChunksDeliverInOrder) {
  // A stream's segments follow one FIFO path, so chunk completions arrive in
  // send order at every receiver.
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, SimConfig{}, q);
  std::vector<int> completion_order;
  net.set_delivery_handler(
      [&](const DeliveryEvent& ev) { completion_order.push_back(ev.chunk); });
  const StreamId s = net.open_stream(f.spec());
  for (int c = 0; c < 6; ++c) net.send_chunk(s, c, 512 * kKiB);
  q.run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Network, QueuePeakTelemetry) {
  // Incast drives the shared link's queue far deeper than a lone stream's.
  Topology topo;
  const NodeId s1 = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId s2 = topo.add_node(Node{NodeKind::Host, 0, 1});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 2});
  const LinkId u1 = topo.add_duplex_link(s1, sw, 100_gbps, 100);
  const LinkId u2 = topo.add_duplex_link(s2, sw, 100_gbps, 100);
  const LinkId d = topo.add_duplex_link(sw, sink, 100_gbps, 100);

  auto run_with = [&](bool both) {
    EventQueue q;
    SimConfig cfg;
    cfg.congestion_control = false;
    Network net(topo, cfg, q);
    auto make = [&](NodeId src, LinkId up) {
      StreamSpec spec;
      spec.source = src;
      spec.links = {up, d};
      spec.receivers = {sink};
      return net.open_stream(spec);
    };
    net.send_chunk(make(s1, u1), 0, 4 * kMiB);
    if (both) net.send_chunk(make(s2, u2), 0, 4 * kMiB);
    q.run();
    return net.link_queue_peak(d);
  };

  const Bytes solo = run_with(false);
  const Bytes incast = run_with(true);
  EXPECT_GT(incast, solo);
  EXPECT_GE(incast, 2 * kMiB);  // half the second message piles up
}

// --- DCQCN unit behaviour ----------------------------------------------------

TEST(Dcqcn, CnpCutsRate) {
  DcqcnParams p;
  Dcqcn cc(p, 12.5, CnpMode::ReceiverTimer, 50 * kMicrosecond);
  EXPECT_DOUBLE_EQ(cc.rate(0), 12.5);
  cc.on_cnp(1000);
  EXPECT_LT(cc.rate(1000), 12.5);
  EXPECT_EQ(cc.reactions(), 1u);
}

TEST(Dcqcn, GuardTimerCoalesces) {
  DcqcnParams p;
  Dcqcn cc(p, 12.5, CnpMode::SenderGuard, 50 * kMicrosecond);
  EXPECT_TRUE(cc.on_cnp(1000));
  for (SimTime t = 2000; t < 50000; t += 1000) {
    EXPECT_FALSE(cc.on_cnp(t));  // inside the guard window
  }
  EXPECT_TRUE(cc.on_cnp(1000 + 50 * kMicrosecond));
  EXPECT_EQ(cc.reactions(), 2u);
  EXPECT_GT(cc.cnps_seen(), 2u);
}

TEST(Dcqcn, UnthrottledReactsToEveryCnp) {
  DcqcnParams p;
  Dcqcn cc(p, 12.5, CnpMode::Unthrottled, 50 * kMicrosecond);
  for (SimTime t = 1000; t <= 16000; t += 1000) cc.on_cnp(t);
  EXPECT_EQ(cc.reactions(), 16u);
  // Repeated cuts drive the rate to the floor.
  EXPECT_NEAR(cc.rate(16000), 0.125, 0.2);
}

TEST(Dcqcn, RecoversTowardLineRate) {
  DcqcnParams p;
  Dcqcn cc(p, 12.5, CnpMode::ReceiverTimer, 50 * kMicrosecond);
  cc.on_cnp(1000);
  const double cut = cc.rate(1000);
  const double later = cc.rate(1000 + 50 * p.increase_timer);
  EXPECT_GT(later, cut);
  const double much_later = cc.rate(1000 + 3000 * p.increase_timer);
  EXPECT_NEAR(much_later, 12.5, 0.5);
}

TEST(Dcqcn, AlphaDecayWeakensLaterCuts) {
  DcqcnParams p;
  Dcqcn fresh(p, 12.5, CnpMode::ReceiverTimer, 0);
  fresh.on_cnp(1000);
  const double aggressive = fresh.rate(1000) / 12.5;  // alpha ~ 1: cut ~ half

  Dcqcn decayed(p, 12.5, CnpMode::ReceiverTimer, 0);
  // Long quiet period decays alpha, so the eventual cut is gentler.
  (void)decayed.rate(500 * p.alpha_timer);
  decayed.on_cnp(500 * p.alpha_timer + 1);
  const double gentle = decayed.rate(500 * p.alpha_timer + 1) / 12.5;
  EXPECT_GT(gentle, aggressive);
}

}  // namespace
}  // namespace peel
