// Tests for the telemetry + invariant layer (src/sim/telemetry.h) and the
// Chrome-trace exporter (src/sim/trace.h).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/sim/trace.h"
#include "src/topology/fat_tree.h"
#include "src/topology/topology.h"

namespace peel {
namespace {

SimConfig telemetry_config() {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  return cfg;
}

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
    s.forward[a] = {l0};
    s.forward[sw] = {l1};
    s.receivers = {b};
    return s;
  }
};

/// Star: one source, a tor, `fanout` sinks — the minimal multicast shape.
struct StarFixture {
  Topology topo;
  NodeId src, sw;
  LinkId up;
  std::vector<NodeId> sinks;
  std::vector<LinkId> down;

  explicit StarFixture(int fanout) {
    src = topo.add_node(Node{NodeKind::Host, 0, 0});
    sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
    up = topo.add_duplex_link(src, sw, 100_gbps, 100);
    for (int i = 0; i < fanout; ++i) {
      sinks.push_back(topo.add_node(Node{NodeKind::Host, 0, i + 1}));
      down.push_back(topo.add_duplex_link(sw, sinks.back(), 100_gbps, 100));
    }
  }

  StreamSpec spec() const {
    StreamSpec s;
    s.source = src;
    s.forward[src] = {up};
    s.forward[sw] = down;
    s.receivers = sinks;
    return s;
  }
};

TEST(Telemetry, CountersMatchLegacyAccounting) {
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, telemetry_config(), q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 256 * kKiB);
  q.run();

  ASSERT_NE(net.telemetry(), nullptr);
  const TelemetrySummary sum = net.telemetry()->summary(q.now());
  ASSERT_EQ(sum.links.size(), f.topo.link_count());

  Bytes total = 0;
  for (const LinkTelemetry& t : sum.links) {
    EXPECT_EQ(t.bytes, net.link_bytes(t.link));
    EXPECT_EQ(t.queue_peak, net.link_queue_peak(t.link));
    total += t.bytes;
  }
  EXPECT_EQ(total, net.total_bytes_serialized());
  EXPECT_EQ(sum.links[static_cast<std::size_t>(f.l0)].bytes, 256 * kKiB);
  EXPECT_EQ(sum.links[static_cast<std::size_t>(f.l0)].segments,
            static_cast<std::uint64_t>(256 * kKiB /
                                       telemetry_config().segment_bytes));
  EXPECT_EQ(sum.duration, q.now());

  // The switch row aggregates its egress ports — here just l1 plus the
  // reverse of l0 (which carried nothing).
  ASSERT_EQ(sum.switches.size(), 1u);
  EXPECT_EQ(sum.switches[0].node, f.sw);
  EXPECT_EQ(sum.switches[0].forwarded_bytes, 256 * kKiB);
  EXPECT_GT(sum.switches[0].buffer_peak, 0);
}

TEST(Telemetry, DisabledMeansNullAndIdenticalResults) {
  ChainFixture f;
  auto run = [&](bool enabled) {
    EventQueue q;
    SimConfig cfg;
    cfg.telemetry.enabled = enabled;
    Network net(f.topo, cfg, q);
    const StreamId s = net.open_stream(f.spec());
    net.send_chunk(s, 0, 1 * kMiB);
    q.run();
    EXPECT_EQ(net.telemetry() != nullptr, enabled);
    return std::pair<SimTime, Bytes>{q.now(), net.total_bytes_serialized()};
  };
  // Passive hooks: enabling telemetry must not shift a single event.
  EXPECT_EQ(run(false), run(true));
}

TEST(Telemetry, TimeWeightedQueueDepthOfIdleLinkIsZero) {
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, telemetry_config(), q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 64 * kKiB);
  q.run();
  const TelemetrySummary sum = net.telemetry()->summary(q.now());
  // The reverse direction of l1 (b -> sw) carried nothing.
  const LinkId reverse = f.topo.reverse_of(f.l1);
  EXPECT_EQ(sum.links[static_cast<std::size_t>(reverse)].mean_queue_bytes, 0.0);
  EXPECT_EQ(sum.links[static_cast<std::size_t>(reverse)].queue_peak, 0);
  // The loaded uplink spent some time with bytes queued.
  EXPECT_GT(sum.links[static_cast<std::size_t>(f.l0)].queue_peak, 0);
}

TEST(Telemetry, SamplerRecordsSeriesAndStopsAtDrain) {
  StarFixture f(4);
  EventQueue q;
  SimConfig cfg = telemetry_config();
  cfg.telemetry.sample_interval = 10 * kMicrosecond;
  Network net(f.topo, cfg, q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 4 * kMiB);
  q.run();  // terminates: the sampler must not keep the queue alive

  const TelemetrySummary sum = net.telemetry()->summary(q.now());
  ASSERT_GE(sum.samples.size(), 2u);
  for (std::size_t i = 1; i < sum.samples.size(); ++i) {
    EXPECT_EQ(sum.samples[i].t - sum.samples[i - 1].t, 10 * kMicrosecond);
  }
  Bytes max_total = 0;
  for (const QueueSample& smp : sum.samples) {
    max_total = std::max(max_total, smp.total_queued);
  }
  EXPECT_GT(max_total, 0);  // 100G fan-out of 4 MiB must queue somewhere
}

TEST(Telemetry, SamplerReArmsAfterQueueDrains) {
  // Regression: the sampler used to die permanently the first time it ticked
  // with an empty event queue. A second burst of work after a quiet gap must
  // grow the time series again.
  ChainFixture f;
  EventQueue q;
  SimConfig cfg = telemetry_config();
  cfg.telemetry.sample_interval = 10 * kMicrosecond;
  Network net(f.topo, cfg, q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 1 * kMiB);
  q.run();  // drains completely: the sampler lapses here
  const std::size_t first_phase =
      net.telemetry()->summary(q.now()).samples.size();
  ASSERT_GE(first_phase, 1u);

  net.send_chunk(s, 1, 1 * kMiB);
  q.run();
  const TelemetrySummary sum = net.telemetry()->summary(q.now());
  EXPECT_GT(sum.samples.size(), first_phase);
}

TEST(Telemetry, MulticastAuditPasses) {
  StarFixture f(3);
  EventQueue q;
  Network net(f.topo, telemetry_config(), q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 512 * kKiB);
  net.send_chunk(s, 1, 128 * kKiB);
  q.run();
  EXPECT_TRUE(net.telemetry()->over_delivery_violations().empty());
  EXPECT_TRUE(net.telemetry()->conservation_violations().empty());
}

TEST(Telemetry, AuditCatchesOverDelivery) {
  // Hand-build a broken tree: the switch forwards every segment onto TWO
  // parallel links to the same sink, so the receiver is credited twice.
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 1});
  const LinkId up = topo.add_duplex_link(src, sw, 100_gbps, 100);
  const LinkId d1 = topo.add_duplex_link(sw, sink, 100_gbps, 100);
  const LinkId d2 = topo.add_duplex_link(sw, sink, 100_gbps, 100);

  EventQueue q;
  Network net(topo, telemetry_config(), q);
  StreamSpec spec;
  spec.source = src;
  spec.forward[src] = {up};
  spec.forward[sw] = {d1, d2};  // duplicate replication — the bug
  spec.receivers = {sink};
  const StreamId s = net.open_stream(spec);
  net.send_chunk(s, 0, 64 * kKiB);
  q.run();

  const auto over = net.telemetry()->over_delivery_violations();
  ASSERT_EQ(over.size(), 1u);
  EXPECT_NE(over[0].find("duplicate replication"), std::string::npos);
  // conservation_violations includes the over-delivery report.
  EXPECT_FALSE(net.telemetry()->conservation_violations().empty());
}

TEST(Telemetry, EveryEngineCatchesDuplicateReplication) {
  // The spec above on all three engines, with the sink forwarding on: a
  // node entered by two listed links is legal but audited, so each engine
  // credits the sink once per path, replicates each copy onward, reports
  // the same one over-delivery, and puts the same bytes on every link.
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId sw = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId sink = topo.add_node(Node{NodeKind::Host, 0, 1});
  const NodeId next = topo.add_node(Node{NodeKind::Host, 0, 2});
  const LinkId up = topo.add_duplex_link(src, sw, 100_gbps, 100);
  const LinkId d1 = topo.add_duplex_link(sw, sink, 100_gbps, 100);
  const LinkId d2 = topo.add_duplex_link(sw, sink, 100_gbps, 100);
  const LinkId onward = topo.add_duplex_link(sink, next, 100_gbps, 100);
  StreamSpec spec;
  spec.source = src;
  spec.forward[src] = {up};
  spec.forward[sw] = {d1, d2};
  spec.forward[sink] = {onward};
  spec.receivers = {sink};

  // `run` drains the engine and returns its (merged) telemetry.
  const auto drive = [&](DataPlane& dp, const auto& run) {
    const StreamId s = dp.open_stream(spec);
    dp.send_chunk(s, 0, 64 * kKiB);
    const auto over = run()->over_delivery_violations();
    EXPECT_EQ(over.size(), 1u);
    for (const std::string& v : over) {
      EXPECT_NE(v.find("duplicate replication"), std::string::npos) << v;
    }
    std::vector<Bytes> bytes;
    for (LinkId l = 0; static_cast<std::size_t>(l) < topo.link_count(); ++l) {
      bytes.push_back(dp.link_bytes(l));
    }
    return bytes;
  };

  EventQueue solo_q;
  Network solo(topo, telemetry_config(), solo_q);
  const std::vector<Bytes> want = drive(solo, [&] {
    solo_q.run();
    return solo.telemetry();
  });
  EXPECT_EQ(want[static_cast<std::size_t>(d1)], 64 * kKiB);
  EXPECT_EQ(want[static_cast<std::size_t>(d2)], 64 * kKiB);
  EXPECT_EQ(want[static_cast<std::size_t>(onward)], 128 * kKiB);
  {
    SCOPED_TRACE("sharded, 2 workers");
    ShardedNetwork sharded(topo, telemetry_config(), 2);
    const std::vector<Bytes> got = drive(sharded, [&] {
      sharded.run();
      return sharded.merged_telemetry();
    });
    EXPECT_EQ(got, want);
  }
  {
    SCOPED_TRACE("flow");
    EventQueue flow_q;
    FlowNetwork flow(topo, telemetry_config(), flow_q);
    const std::vector<Bytes> got = drive(flow, [&] {
      flow_q.run();
      return flow.telemetry();
    });
    EXPECT_EQ(got, want);
  }
}

TEST(Telemetry, AuditFlagsUnderDeliveryOnLossFreeStream) {
  // A broken forwarding map: the switch has no entry, so segments stop there
  // and the receiver silently never gets its bytes — exactly the
  // "silently stuck flow" failure mode the audit exists to catch.
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, telemetry_config(), q);
  StreamSpec spec = f.spec();
  spec.forward.erase(f.sw);  // the hole
  const StreamId s = net.open_stream(spec);
  net.send_chunk(s, 0, 64 * kKiB);
  q.run();

  const auto violations = net.telemetry()->conservation_violations();
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const std::string& v : violations) {
    if (v.find("no segment losses") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  // Over-delivery never happened, though.
  EXPECT_TRUE(net.telemetry()->over_delivery_violations().empty());
}

TEST(Telemetry, ClosingSupersededStreamExemptsUnderDelivery) {
  // A stream deliberately closed by its owner mid-flight (the collective
  // finished through another stream, e.g. recovery racing the original
  // tree) must NOT be reported as under-delivering.
  ChainFixture f;
  EventQueue q;
  Network net(f.topo, telemetry_config(), q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 64 * kKiB);
  q.at(1, [&] { net.close_stream(s); });  // before anything can arrive
  q.run();
  EXPECT_TRUE(net.telemetry()->conservation_violations().empty());
}

TEST(Telemetry, StreamDiagnosticReportsProgress) {
  ChainFixture f;
  EventQueue q;
  SimConfig cfg;  // diagnostics work without telemetry
  Network net(f.topo, cfg, q);
  const StreamId s = net.open_stream(f.spec());
  net.send_chunk(s, 0, 64 * kKiB);

  StreamDiagnostic before = net.stream_diagnostic(s);
  EXPECT_EQ(before.pending_chunks, 1u);
  EXPECT_EQ(before.bytes_pending_injection, 64 * kKiB);
  EXPECT_EQ(before.incomplete_deliveries, 1u);
  EXPECT_FALSE(before.closed);

  q.run();
  StreamDiagnostic after = net.stream_diagnostic(s);
  EXPECT_EQ(after.pending_chunks, 0u);
  EXPECT_EQ(after.bytes_pending_injection, 0);
  EXPECT_EQ(after.incomplete_deliveries, 0u);
}

// --- Chrome-trace exporter --------------------------------------------------

/// Tiny recursive-descent JSON validator: accepts exactly the JSON grammar
/// (objects/arrays/strings/numbers/true/false/null), enough to prove the
/// trace is well-formed without a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, EmitsValidJsonWithAllEventKinds) {
  TelemetrySummary sum;
  sum.duration = 1000000;
  sum.flows.push_back(FlowSpan{1, "PEEL #1 \"quoted\\name\"", 0, 500000, true});
  sum.flows.push_back(FlowSpan{2, "Ring #2", 100, 1000000, false});
  sum.pauses.push_back(PauseSpan{3, 2000, 7000});
  sum.cnps.push_back(CnpEvent{0, 5, 4000});

  std::ostringstream out;
  write_chrome_trace(out, sum);
  const std::string json = out.str();

  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // durations
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"finished\":false"), std::string::npos);
}

TEST(ChromeTrace, EndToEndTraceFromScenarioIsValidJson) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.group_size = 8;
  config.message_bytes = 1 * kMiB;
  config.collectives = 3;
  config.sim.telemetry.enabled = true;
  config.sim.telemetry.record_trace = true;
  config.byte_audit = true;

  const ScenarioResult result = run_scenario(fabric, config);
  ASSERT_NE(result.telemetry, nullptr);
  EXPECT_EQ(result.telemetry->flows.size(), 3u);
  for (const FlowSpan& f : result.telemetry->flows) {
    EXPECT_TRUE(f.finished);
    EXPECT_GE(f.end, f.begin);
  }

  std::ostringstream out;
  write_chrome_trace(out, *result.telemetry);
  EXPECT_TRUE(JsonValidator(out.str()).valid()) << out.str();
}

TEST(ScenarioTelemetry, AuditedScenarioMatchesPlainScenario) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.group_size = 8;
  config.message_bytes = 2 * kMiB;
  config.collectives = 4;
  config.byte_audit = false;

  const ScenarioResult plain = run_scenario(fabric, config);
  config.byte_audit = true;
  const ScenarioResult audited = run_scenario(fabric, config);

  // The audit must not perturb the simulation.
  ASSERT_EQ(plain.cct_seconds.count(), audited.cct_seconds.count());
  for (std::size_t i = 0; i < plain.cct_seconds.values().size(); ++i) {
    EXPECT_EQ(plain.cct_seconds.values()[i], audited.cct_seconds.values()[i]);
  }
  EXPECT_EQ(plain.fabric_bytes, audited.fabric_bytes);
  EXPECT_EQ(plain.events, audited.events);
  EXPECT_EQ(plain.telemetry, nullptr);
  EXPECT_NE(audited.telemetry, nullptr);
}

TEST(ScenarioTelemetry, WatchdogThrowsOnDeadlineWithDiagnostics) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.group_size = 8;
  config.message_bytes = 64 * kMiB;
  config.collectives = 2;
  config.offered_load = 0.9;  // first arrival lands well inside the deadline
  config.watchdog = true;
  // A 64 MiB broadcast needs >5 ms of serialization alone: guaranteed cutoff
  // after submission but long before completion.
  config.deadline_seconds = 4e-3;

  try {
    (void)run_scenario(fabric, config);
    FAIL() << "expected StuckFlowError";
  } catch (const StuckFlowError& e) {
    EXPECT_FALSE(e.flows().empty());
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-flow watchdog"), std::string::npos);
    EXPECT_NE(what.find("deadline"), std::string::npos);
    EXPECT_NE(what.find("collective"), std::string::npos);
  }
}

TEST(ScenarioTelemetry, WatchdogSilentOnCleanRun) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.group_size = 8;
  config.message_bytes = 1 * kMiB;
  config.collectives = 3;
  config.watchdog = true;
  config.byte_audit = true;
  const ScenarioResult result = run_scenario(fabric, config);
  EXPECT_EQ(result.unfinished, 0u);
}

}  // namespace
}  // namespace peel
