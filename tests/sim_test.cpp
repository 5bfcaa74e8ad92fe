#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/dcqcn.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
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

// Backlog with edge cases: K streams from one host S that leaves its pod over
// two NICs (S -> A, S -> B) through two cores to two destination pods, each
// core -> ToR hop at half rate, behind a small buffer (480 KiB unless a drive
// sets it). A third of the streams multicast over both NICs, so S often frees
// buffer on both NICs at one instant. Chunk sizes that are not segment
// multiples leave short tail segments, which lets S's buffer cross the resume
// level, refill past the pause level and cross it again within one instant: two
// releases before the first wake fires. A control loop steps the engine and,
// from the diagnostics, sends a chunk onto a blocked injector (its pump blocks
// again and leaves a second blocked entry), closes a blocked stream, and
// cancels every chunk of a blocked stream that has injected nothing (its
// injector stays blocked with nothing pending). A 1 ns ticker reads every
// stream's diagnostic; on the solo engine it runs inside each instant, between
// a release and its wake, where it also sends onto, closes and cancels
// injectors the release woke. Streams close when their last chunk lands. A
// drive can also strike: cancel one stream from a closure placed between two
// events of one instant.
struct BacklogFixture {
  Topology topo;
  NodeId s, d1, d2;
  LinkId sa, sb, ac, bc, ce1, ce2, ed1, ed2;

  BacklogFixture() {
    s = topo.add_node(Node{NodeKind::Host, 0, 0});
    const NodeId a = topo.add_node(Node{NodeKind::Tor, 0, 0});
    const NodeId b = topo.add_node(Node{NodeKind::Tor, 0, 1});
    const NodeId c1 = topo.add_node(Node{NodeKind::Core, -1, 0});
    const NodeId c2 = topo.add_node(Node{NodeKind::Core, -1, 1});
    const NodeId e1 = topo.add_node(Node{NodeKind::Tor, 1, 0});
    const NodeId e2 = topo.add_node(Node{NodeKind::Tor, 2, 0});
    d1 = topo.add_node(Node{NodeKind::Host, 1, 0});
    d2 = topo.add_node(Node{NodeKind::Host, 2, 0});
    sa = topo.add_duplex_link(s, a, 100_gbps, 100);
    sb = topo.add_duplex_link(s, b, 100_gbps, 100);
    ac = topo.add_duplex_link(a, c1, 100_gbps, 500);
    bc = topo.add_duplex_link(b, c2, 100_gbps, 500);
    ce1 = topo.add_duplex_link(c1, e1, 50_gbps, 500);
    ce2 = topo.add_duplex_link(c2, e2, 50_gbps, 500);
    ed1 = topo.add_duplex_link(e1, d1, 100_gbps, 100);
    ed2 = topo.add_duplex_link(e2, d2, 100_gbps, 100);
  }

  /// Stream `i` goes to D1, to D2, or to both, by i mod 3.
  [[nodiscard]] StreamSpec spec(int i) const {
    StreamSpec sp;
    sp.source = s;
    if (i % 3 != 1) {
      sp.links.insert(sp.links.end(), {sa, ac, ce1, ed1});
      sp.receivers.push_back(d1);
    }
    if (i % 3 != 0) {
      sp.links.insert(sp.links.end(), {sb, bc, ce2, ed2});
      sp.receivers.push_back(d2);
    }
    sp.tag = static_cast<std::uint64_t>(i);
    return sp;
  }
};

/// The solo engine (shards == 0) or the sharded one at `shards` workers,
/// behind the DataPlane surface plus the clock calls run_backlog needs.
struct BacklogEngine {
  EventQueue queue;
  std::unique_ptr<Network> solo;
  std::unique_ptr<ShardedNetwork> sharded;
  DataPlane* dp = nullptr;

  BacklogEngine(const Topology& topo, const SimConfig& cfg, int shards) {
    if (shards == 0) {
      solo = std::make_unique<Network>(topo, cfg, queue);
      dp = solo.get();
    } else {
      sharded = std::make_unique<ShardedNetwork>(topo, cfg, shards);
      dp = sharded.get();
    }
  }
  /// A closure at `t`: on the solo queue, or on the sharded control queue.
  void at(SimTime t, std::function<void()> fn) {
    (solo ? queue : sharded->control()).at(t, std::move(fn));
  }
  void run_until(SimTime t) {
    if (solo) {
      queue.run_until(t);
    } else {
      sharded->run_until(t);
    }
  }
  void run() {
    if (solo) {
      queue.run();
    } else {
      sharded->run();
    }
  }
  [[nodiscard]] SimTime now() const {
    return solo ? queue.now() : sharded->now();
  }
  [[nodiscard]] std::uint64_t events() const {
    return solo ? queue.processed() : sharded->events_processed();
  }
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

struct BacklogResult {
  std::vector<SimTime> cct;  ///< per stream; -1 = closed before it finished
  std::uint64_t cct_hash = kFnvBasis;
  /// Per stream at the mid-run deadline: 'c' closed, else 'B' blocked and
  /// scheduled, 'b' blocked, 's' scheduled, '.' neither.
  std::string mid_diag;
  /// Every (pump_blocked, pump_scheduled) pair the ticker read.
  std::uint64_t tick_hash = kFnvBasis;
  std::uint64_t events = 0;
  /// Control steps that sent onto a blocked stream, closed and cancelled.
  int sends = 0, closes = 0, cancels = 0;
};

/// How run_backlog drives the engine: `steps` control steps `step` apart,
/// with S's buffer holding `buffer` bytes and resuming `hysteresis` bytes
/// below its pause level. With `strike_at` > 0, stream `strike` is
/// cancelled at `strike_at` by a closure scheduled at `strike_via` by one
/// scheduled at `strike_from`: an instant's events run in the order they
/// were scheduled, so the path picks where among them the cancel falls.
struct BacklogDrive {
  int steps;
  SimTime step;
  Bytes buffer = 480 * kKiB;
  Bytes hysteresis = SimConfig{}.pfc_hysteresis;
  SimTime strike_from = 0;
  SimTime strike_via = 0;
  SimTime strike_at = 0;
  StreamId strike = 0;
};

BacklogResult run_backlog(int shards, const BacklogDrive& drive) {
  constexpr int kStreams = 48;
  constexpr int kMidStep = 12;
  const BacklogFixture f;
  SimConfig cfg;
  cfg.switch_buffer_bytes = drive.buffer;
  cfg.pfc_hysteresis = drive.hysteresis;
  BacklogEngine e(f.topo, cfg, shards);
  BacklogResult r;
  r.cct.assign(kStreams, -1);
  std::vector<int> owed(kStreams, 0);  // (receiver, chunk) deliveries left
  std::vector<int> next_chunk(kStreams, 0);
  std::vector<int> fanout(kStreams, 0);
  std::vector<bool> closed(kStreams, false);
  auto close = [&](StreamId s) {
    closed[static_cast<std::size_t>(s)] = true;
    e.dp->close_stream(s);
  };
  e.dp->set_delivery_handler([&](const DeliveryEvent& ev) {
    const auto i = static_cast<std::size_t>(ev.stream);
    if (--owed[i] == 0) {
      r.cct[i] = e.now();
      close(ev.stream);
    }
  });
  auto send = [&](StreamId s, Bytes bytes) {
    const auto i = static_cast<std::size_t>(s);
    e.dp->send_chunk(s, next_chunk[i]++, bytes);
    owed[i] += fanout[i];
  };
  // A stream that loses every chunk gets one more 10 us later (from a
  // closure, where the sharded engine's clocks agree), so it finishes.
  auto cancel = [&](StreamId s) {
    const auto i = static_cast<std::size_t>(s);
    const std::size_t gone = e.dp->cancel_unsent_chunks(s).size();
    owed[i] -= fanout[i] * static_cast<int>(gone);
    if (owed[i] > 0) return;
    e.at(e.now() + 10 * kMicrosecond, [&, s, i] {
      if (!closed[i] && owed[i] == 0) send(s, 64 * kKiB);
    });
  };
  for (int i = 0; i < kStreams; ++i) {
    const StreamSpec spec = f.spec(i);
    const StreamId s = e.dp->open_stream(spec);
    fanout[static_cast<std::size_t>(s)] =
        static_cast<int>(spec.receivers.size());
    for (int c = 0; c < 4; ++c) send(s, (i % 2 != 0 ? 192 : 224) * kKiB);
  }

  // The ticker: every nanosecond of [20, 40) us, while the control loop
  // runs, and of [215, 400) us, after it stopped (its sends and closes make
  // most releases walk their list). It acts at most once per 97 ns, on a
  // stream that reads as scheduled and not blocked, cycling through a
  // send, a close and a cancel.
  SimTime next_act = 0;
  int acts = 0;
  std::function<void()> tick = [&] {
    for (StreamId s = 0; s < kStreams; ++s) {
      const StreamDiagnostic d = e.dp->stream_diagnostic(s);
      r.tick_hash = fnv_mix(r.tick_hash, (d.pump_blocked ? 2u : 0u) |
                                             (d.pump_scheduled ? 1u : 0u));
      if (e.now() < next_act || d.closed || !d.pump_scheduled ||
          d.pump_blocked) {
        continue;
      }
      next_act = e.now() + 97;
      switch (acts++ % 3) {
        case 0:
          send(s, 64 * kKiB);
          break;
        case 1:
          close(s);
          break;
        default:
          cancel(s);
      }
    }
    const SimTime t = e.now() + 1;
    if (t < 40 * kMicrosecond ||
        (t >= 215 * kMicrosecond && t < 400 * kMicrosecond)) {
      e.at(t, tick);
    }
  };
  e.at(20 * kMicrosecond, tick);
  e.at(215 * kMicrosecond, tick);
  if (drive.strike_at > 0) {
    e.at(drive.strike_from, [&] {
      e.at(drive.strike_via, [&] {
        e.at(drive.strike_at, [&] { cancel(drive.strike); });
      });
    });
  }

  for (int step = 1; step <= drive.steps; ++step) {
    e.run_until(step * drive.step);
    std::vector<StreamDiagnostic> diag;
    std::string flags;
    for (StreamId s = 0; s < kStreams; ++s) {
      const StreamDiagnostic& d = diag.emplace_back(e.dp->stream_diagnostic(s));
      flags += d.closed         ? 'c'
               : d.pump_blocked ? (d.pump_scheduled ? 'B' : 'b')
               : d.pump_scheduled ? 's'
                                  : '.';
    }
    if (step == kMidStep) r.mid_diag = flags;
    // The blocked, unscheduled streams, from a step-dependent start so the
    // actions spread over the streams.
    std::vector<StreamId> blocked;
    for (int j = 0; j < kStreams; ++j) {
      const int s = (j + 5 * step) % kStreams;
      const StreamDiagnostic& d = diag[static_cast<std::size_t>(s)];
      if (!d.closed && d.pump_blocked && !d.pump_scheduled) {
        blocked.push_back(s);
      }
    }
    if (blocked.empty()) continue;
    send(blocked.front(), 64 * kKiB);
    ++r.sends;
    if (step % 4 == 1 && blocked.size() > 1) {
      close(blocked[1]);
      ++r.closes;
    }
    if (step % 4 == 3) {
      for (std::size_t j = 1; j < blocked.size(); ++j) {
        const auto i = static_cast<std::size_t>(blocked[j]);
        if (diag[i].pending_chunks != static_cast<std::size_t>(next_chunk[i])) {
          continue;  // it has begun injecting
        }
        cancel(blocked[j]);
        ++r.cancels;
        break;
      }
    }
  }
  e.run();
  r.events = e.events();
  for (std::size_t i = 0; i < r.cct.size(); ++i) {
    EXPECT_TRUE(closed[i]) << "stream " << i << " never finished";
    r.cct_hash = fnv_mix(r.cct_hash, static_cast<std::uint64_t>(r.cct[i]));
  }
  return r;
}

TEST(Network, BackloggedSourceWakeEdgeCasesOnEveryEngine) {
  // Recorded before wakes stopped pumping injectors that would only block
  // again. A wake that picks its injectors when it fires instead of at the
  // release moves the events, CCTs and diagnostics of every run. The
  // second, longer control loop is one on which a release that skips its
  // walk after a send onto a parked injector moves them too. The third
  // drive has no hysteresis, so at 870,938 ns two of S's releases fall in
  // one instant with a park between them: the first wakes S's parked
  // injectors, the strike then cancels every chunk of one of them (stream
  // 35, neither first nor begun), and the second release walks only what
  // parked since the first. The wake must still see that cancel (a release
  // that forgets it moves the solo engine's events and CCTs).
  const BacklogDrive short_loop{.steps = 40, .step = 5'300};
  const BacklogDrive long_loop{.steps = 60, .step = 7'300};
  const BacklogDrive strike{.steps = 40,
                            .step = 5'300,
                            .buffer = 384 * kKiB,
                            .hysteresis = 0,
                            .strike_from = 863'000,
                            .strike_via = 865'695,
                            .strike_at = 870'938,
                            .strike = 35};
  struct Pinned {
    const BacklogDrive* drive;
    int shards;
    std::uint64_t events, cct_hash, tick_hash;
    const char* mid_diag;
    int sends, closes, cancels;
  };
  const Pinned pinned[] = {
      {&short_loop, 0, 208'642, 0x43750f4f5ddf1e40ULL, 0xa60c5b963f80d580ULL,
       "ccbbbbcb.bbbbbbb.bbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 40, 10, 10},
      {&short_loop, 1, 210'613, 0x0877ecf95d0acc6dULL, 0x0ac01b2144604f37ULL,
       "bcbbbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbb.bbbbbbbbbcb", 40, 10, 10},
      {&short_loop, 3, 210'613, 0x0877ecf95d0acc6dULL, 0x0ac01b2144604f37ULL,
       "bcbbbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbb.bbbbbbbbbcb", 40, 10, 10},
      {&long_loop, 0, 207'443, 0x5ad9dfffc251832bULL, 0x09986cc18c01ab9dULL,
       "bcbsbbcb.bbbbbbbcbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 60, 15, 15},
      {&long_loop, 1, 208'989, 0x6af97b91a6944297ULL, 0xf89859a3465373ebULL,
       "bcbsbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 60, 15, 15},
      {&long_loop, 3, 208'989, 0x6af97b91a6944297ULL, 0xf89859a3465373ebULL,
       "bcbsbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 60, 15, 15},
      {&strike, 0, 208'840, 0xecc6c89a9a9fca7eULL, 0x898157dfa14f0705ULL,
       "ccbbbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 40, 10, 10},
      {&strike, 1, 210'432, 0xdee31eeca225fe0bULL, 0xeee8d66fe3073a36ULL,
       "bcbbbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 40, 10, 10},
      {&strike, 3, 210'432, 0xdee31eeca225fe0bULL, 0xeee8d66fe3073a36ULL,
       "bcbbbbcb.bbbbbbbbbbbbbbbbbcbbbbbbbbbbbbbbbbbbbcb", 40, 10, 10},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("steps=" + std::to_string(p.drive->steps) +
                 " buffer=" + std::to_string(p.drive->buffer) +
                 " shards=" + std::to_string(p.shards));
    const BacklogResult r = run_backlog(p.shards, *p.drive);
    EXPECT_EQ(r.events, p.events);
    EXPECT_EQ(r.cct_hash, p.cct_hash) << ::testing::PrintToString(r.cct);
    EXPECT_EQ(r.tick_hash, p.tick_hash);
    EXPECT_EQ(r.mid_diag, p.mid_diag);
    EXPECT_EQ(r.sends, p.sends);
    EXPECT_EQ(r.closes, p.closes);
    EXPECT_EQ(r.cancels, p.cancels);
  }
}

TEST(Network, SendAfterRunDeliversOnEveryEngine) {
  // A drain leaves each of the sharded engine's domains at its own last
  // event. With no delivery handler bound, no delivery replays on the
  // control queue to align them at the end, and under PFC backpressure S's
  // domain stops about 20 us before the core's. run() aligns the clocks
  // before it returns, so a chunk sent after it pumps at the engine's time
  // instead of sending its segments into the core domain's past.
  constexpr int kStreams = 20;
  const BacklogFixture f;
  SimConfig cfg;
  cfg.seed = 403;
  cfg.switch_buffer_bytes = 480 * kKiB;
  const auto check = [&](DataPlane& dp, const std::function<void()>& run) {
    for (int i = 0; i < kStreams; ++i) {
      const StreamId s = dp.open_stream(f.spec(i));
      for (int c = 0; c < 4; ++c) {
        dp.send_chunk(s, c, (i % 2 != 0 ? 192 : 224) * kKiB);
      }
    }
    run();
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_EQ(dp.stream_diagnostic(s).incomplete_deliveries, 0u);
    }
    std::size_t delivered = 0;
    dp.set_delivery_handler([&](const DeliveryEvent& ev) {
      EXPECT_EQ(ev.chunk, 4);
      ++delivered;
    });
    const StreamId both = 17;  // to D1 and D2 (17 mod 3 == 2)
    dp.send_chunk(both, 4, 64 * kKiB);
    run();
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(dp.stream_diagnostic(both).incomplete_deliveries, 0u);
  };
  {
    SCOPED_TRACE("solo");
    EventQueue queue;
    Network net(f.topo, cfg, queue);
    check(net, [&] { queue.run(); });
  }
  for (int workers : {1, 3}) {
    SCOPED_TRACE("sharded, " + std::to_string(workers) + " workers");
    ShardedNetwork net(f.topo, cfg, workers);
    check(net, [&] { net.run(); });
  }
  {
    SCOPED_TRACE("flow");
    EventQueue queue;
    FlowNetwork net(f.topo, cfg, queue);
    check(net, [&] { queue.run(); });
  }
}

TEST(Network, ReleaseWithOnlyClosedStreamsParkedWakesNothing) {
  // Every stream is parked on the source's buffer and then closed: the
  // release that drains the buffer finds nothing to wake and schedules no
  // wake event. The count of events after the closes was recorded when
  // every release walked its list.
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;
  cfg.congestion_control = false;
  cfg.switch_buffer_bytes = 1 * kMiB;
  Network net(f.topo, cfg, q);
  std::vector<StreamId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(net.open_stream(f.spec()));
    for (int c = 0; c < 4; ++c) net.send_chunk(ids.back(), c, 1 * kMiB);
  }
  auto all_parked = [&] {
    return std::ranges::all_of(ids, [&](StreamId s) {
      const StreamDiagnostic d = net.stream_diagnostic(s);
      return d.pump_blocked && !d.pump_scheduled;
    });
  };
  SimTime t = 0;
  do {
    t += 100;
    q.run_until(t);
  } while (!all_parked());
  for (StreamId s : ids) net.close_stream(s);
  const std::uint64_t before = q.processed();
  q.run();
  EXPECT_EQ(t, 10'500);
  // The segments still queued and in flight: FinishTx and Arrive events.
  EXPECT_EQ(q.processed() - before, 33u);
  for (StreamId s : ids) EXPECT_TRUE(net.stream_diagnostic(s).pump_blocked);
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
