// Flow-fidelity suite: the fluid engine (src/sim/flow_network.h) must be a
// *fidelity* knob, not a semantics knob.
//
//   1. Differential harness — every figure-family sweep runs in both
//      fidelities on a small fabric; flow-level mean CCT must land within the
//      stated per-figure tolerance of packet-level (the same numbers quoted
//      in docs/simulator.md), and byte totals must reconcile EXACTLY: both
//      engines execute the same trees and chunks, so serialized bytes and
//      segment counts are integers with one right answer.
//   2. Property test — each link's ∫ rate dt (piecewise-constant allocated
//      rates) equals its audited serialized bytes at drain, including across
//      cancellation and early close (partial fluid is retroactively removed).
//   3. Fault path — mid-run TopologyDeltas truncate streams on failed links
//      and recovery re-admits them, with exactly-once delivery proven by the
//      byte audit, under the flow engine.
//   4. Determinism — flow-fidelity sweep cells are byte-identical across
//      sweep worker-thread counts.
//   5. Analytic max-min — hand-built streams with congestion control off
//      get exactly the max-min fair shares worked out by hand: multi-level
//      fills, tied bottlenecks, departures that split a component, and a
//      close that frees bandwidth for the stream's neighbours.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/harness/workload.h"
#include "src/sim/flow_network.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

/// Per-figure relative CCT tolerance of the flow fidelity vs packet level
/// (documented in docs/simulator.md). The fluid model has no queueing
/// transients, so pipelined store-and-forward schemes (BinaryTree's
/// host-relay chains) diverge the most; single-tree schemes the least.
double cct_tolerance(Scheme scheme) {
  switch (scheme) {
    case Scheme::BinaryTree: return 0.30;
    case Scheme::Ring: return 0.30;
    case Scheme::Orca: return 0.30;
    case Scheme::InNet: return 0.20;
    default: return 0.15;  // Peel, PeelProgCores, Optimal
  }
}

/// Multi-phase host-side collectives (reduce + broadcast phases chained off
/// delivery callbacks) accumulate the per-phase fluid error; their stated
/// tolerance is wider than the single-tree broadcast figures.
constexpr double kMultiPhaseTolerance = 0.30;
/// AllGather is the worst case for the fluid model: k simultaneous sub-ms
/// shard broadcasts whose contention is too short-lived for packet-level
/// DCQCN to throttle, while the flow engine's steady-state utilization caps
/// apply from the first byte.
constexpr double kBurstTolerance = 0.45;
/// Failure figures run a thinner fabric (spines removed / links flapping),
/// which deepens contention and with it the fluid-vs-FIFO gap.
constexpr double kFailureFigureTolerance = 0.30;

ScenarioConfig base_config(Scheme scheme, CollectiveKind kind, int group,
                           Bytes message) {
  ScenarioConfig c;
  c.scheme = scheme;
  c.collective = kind;
  c.group_size = group;
  c.message_bytes = message;
  c.collectives = 5;
  c.seed = 20260809;
  c.byte_audit = true;  // every differential run is audited in BOTH modes
  c.watchdog = true;
  return c;
}

/// Runs one cell in both fidelities and checks the differential contract:
/// audited clean (byte_audit throws otherwise), same byte totals, same
/// segment counts, CCT within tolerance.
void expect_differential(const Fabric& fabric, ScenarioConfig config,
                         double tolerance) {
  config.fidelity = Fidelity::Packet;
  const ScenarioResult packet = run_scenario(fabric, config);
  config.fidelity = Fidelity::Flow;
  const ScenarioResult flow = run_scenario(fabric, config);

  EXPECT_EQ(packet.unfinished, 0u);
  EXPECT_EQ(flow.unfinished, 0u);
  // Byte reconciliation: same trees, same chunks => identical integers.
  EXPECT_EQ(packet.fabric_bytes, flow.fabric_bytes);
  EXPECT_EQ(packet.core_bytes, flow.core_bytes);
  EXPECT_EQ(packet.segments, flow.segments);

  const double p = packet.cct_seconds.mean();
  const double f = flow.cct_seconds.mean();
  ASSERT_GT(p, 0.0);
  EXPECT_NEAR(f / p, 1.0, tolerance)
      << "flow mean CCT " << f << " s vs packet " << p << " s";
}

// --- 1. differential harness, one test per figure family -------------------

// Figure 5 family: CCT vs message size, all five broadcast schemes.
TEST(FlowFidelity, DifferentialCctVsMessageSize) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  for (const Scheme scheme :
       {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal, Scheme::Orca,
        Scheme::Peel}) {
    for (const Bytes message : {Bytes{256 * kKiB}, Bytes{2 * kMiB}}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " " +
                   std::to_string(message / kKiB) + " KiB");
      expect_differential(
          fabric, base_config(scheme, CollectiveKind::Broadcast, 16, message),
          cct_tolerance(scheme));
    }
  }
}

// Figure 6 family: CCT vs scale (group size axis).
TEST(FlowFidelity, DifferentialCctVsScale) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  for (const Scheme scheme : {Scheme::Peel, Scheme::Ring}) {
    for (const int group : {8, 32}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " k=" +
                   std::to_string(group));
      expect_differential(
          fabric,
          base_config(scheme, CollectiveKind::Broadcast, group, 1 * kMiB),
          cct_tolerance(scheme));
    }
  }
}

// AllGather / AllReduce figure extensions, including the in-network
// reduction path (fused reduce stream + PEEL multicast down).
TEST(FlowFidelity, DifferentialCollectiveKinds) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  expect_differential(
      fabric, base_config(Scheme::Peel, CollectiveKind::AllGather, 16, 1 * kMiB),
      kBurstTolerance);
  expect_differential(
      fabric, base_config(Scheme::Peel, CollectiveKind::AllReduce, 16, 1 * kMiB),
      kMultiPhaseTolerance);
  expect_differential(
      fabric,
      base_config(Scheme::InNet, CollectiveKind::AllReduce, 16, 1 * kMiB),
      cct_tolerance(Scheme::InNet));
}

// Figure 7 family (static regime): the fabric is damaged before the run and
// PEEL builds asymmetric trees around the failures. The flow engine sees the
// pre-failed topology at open_stream and must agree with packet level.
TEST(FlowFidelity, DifferentialStaticFailures) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const std::vector<LinkId> candidates = duplex_spine_leaf_links(ls.topo);
  ASSERT_GE(candidates.size(), 2u);
  ls.topo.fail_duplex(candidates[0]);
  ls.topo.fail_duplex(candidates[candidates.size() / 2]);
  const Fabric fabric = Fabric::of(ls);

  ScenarioConfig config =
      base_config(Scheme::Peel, CollectiveKind::Broadcast, 16, 1 * kMiB);
  config.runner.peel_asymmetric = true;
  expect_differential(fabric, config, kFailureFigureTolerance);
}

// A scaled-down Peel Broadcast reference cell (8 MiB, 16 GPUs): the flow
// path must cut simulator events by >= 20x — the flow engine's acceptance
// floor.
TEST(FlowFidelity, EventReductionOnReferenceCell) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config =
      base_config(Scheme::Peel, CollectiveKind::Broadcast, 16, 8 * kMiB);

  config.fidelity = Fidelity::Packet;
  const ScenarioResult packet = run_scenario(fabric, config);
  config.fidelity = Fidelity::Flow;
  const ScenarioResult flow = run_scenario(fabric, config);

  EXPECT_EQ(packet.fabric_bytes, flow.fabric_bytes);
  ASSERT_GT(flow.events, 0u);
  EXPECT_GE(packet.events, 20 * flow.events)
      << "packet " << packet.events << " events vs flow " << flow.events;
}

// --- 2. utilization-integral property test (satellite) ---------------------

// A 4-node line host0 -- tor0 -- tor1 -- host1 driven directly through the
// FlowNetwork, exercising contention (two streams sharing the middle hop),
// cancellation, and early close. At drain, every link's ∫ rate dt must equal
// its audited serialized bytes — partial fluid of chunks that never
// completed is retroactively removed from the integral.
TEST(FlowFidelity, UtilIntegralMatchesAuditedBytes) {
  Topology topo;
  const NodeId h0 = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId t0 = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId t1 = topo.add_node(Node{NodeKind::Tor, 0, 1});
  const NodeId h1 = topo.add_node(Node{NodeKind::Host, 0, 1});
  const LinkId l0 = topo.add_duplex_link(h0, t0, GbpsRate{100.0}, 100,
                                         LinkKind::HostNic);
  const LinkId l1 = topo.add_duplex_link(t0, t1, GbpsRate{100.0});
  const LinkId l2 = topo.add_duplex_link(t1, h1, GbpsRate{100.0}, 100,
                                         LinkKind::HostNic);

  SimConfig sim;
  sim.telemetry.enabled = true;
  EventQueue queue;
  FlowNetwork net(topo, sim, queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});

  StreamSpec a;  // full path h0 -> h1
  a.source = h0;
  a.forward[h0] = {l0};
  a.forward[t0] = {l1};
  a.forward[t1] = {l2};
  a.receivers = {h1};
  const StreamId sa = net.open_stream(std::move(a));

  StreamSpec b;  // contends with `a` on the middle hop only
  b.source = t0;
  b.forward[t0] = {l1};
  b.receivers = {t1};
  const StreamId sb = net.open_stream(std::move(b));

  for (int c = 0; c < 4; ++c) net.send_chunk(sa, c, 256 * kKiB);
  for (int c = 0; c < 4; ++c) net.send_chunk(sb, c, 192 * kKiB);
  // Perturb mid-run: by 100 us b has finished two chunks and is mid-way
  // through its third — the cancel drops the unsent tail, the close kills
  // the partial head (whose fluid must leave the rate integrals).
  queue.after(100 * kMicrosecond, [&net, sb] {
    net.cancel_unsent_chunks(sb);
    net.close_stream(sb);
  });
  queue.run();
  net.close_stream(sa);

  for (const LinkId l : {l0, l1, l2}) {
    const auto bytes = static_cast<double>(net.link_bytes(l));
    EXPECT_NEAR(net.link_rate_integral(l), bytes, 1.0)
        << "link " << l << ": integral diverged from audited bytes";
  }
  // The contended hop really carried both streams.
  EXPECT_GT(net.link_bytes(l1), net.link_bytes(l0));
  EXPECT_EQ(net.segments_lost(), 0u);
}

// --- 3. fault path under the flow engine ------------------------------------

// Mid-run duplex failures on spine-leaf links, with the recovery pass
// re-admitting truncated streams. The byte audit (which throws on any
// over-delivery, i.e. a re-sent byte that was already credited) proves
// exactly-once delivery through truncation + re-admission.
TEST(FlowFidelity, FaultTruncationAndReadmission) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  const std::vector<LinkId> spine_links = duplex_spine_leaf_links(ls.topo);
  ASSERT_GE(spine_links.size(), 4u);

  ScenarioConfig config =
      base_config(Scheme::Peel, CollectiveKind::Broadcast, 32, 4 * kMiB);
  config.fidelity = Fidelity::Flow;
  config.runner.peel_asymmetric = true;  // trees must tolerate mid-run damage
  config.offered_load = 0.5;
  // Flap two spine-leaf pairs while collectives are in flight.
  config.faults.schedule.flap_link(40 * kMicrosecond, 140 * kMicrosecond,
                                   spine_links[0]);
  config.faults.schedule.flap_link(60 * kMicrosecond, 160 * kMicrosecond,
                                   spine_links[2]);
  config.faults.detection_delay_seconds = 20e-6;

  const ScenarioResult r = run_scenario(fabric, config);  // audits at drain
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.fault_downs, 2u);
  EXPECT_EQ(r.fault_ups, 2u);
  // The watchdog + audit passing is the real assertion; damage must have
  // been visible to the control plane for the test to mean anything.
  EXPECT_GT(r.delta_applies, 0u);
}

// Random flapping under flow fidelity: a denser, less structured fault
// pattern; the run must still drain audit-clean. Leaf-spine, as in fig7's
// dynamic phase — flapping a small fat-tree can disconnect a ToR outright,
// which the control plane rejects in either fidelity.
TEST(FlowFidelity, RandomFlappingAuditsClean) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  // The fault_recovery_test flap recipe (concentrated on the in-flight
  // window, wide enough to provably cross live trees), run under flow
  // fidelity: truncation + re-admission with exactly-once proven by audit.
  ScenarioConfig config =
      base_config(Scheme::Peel, CollectiveKind::Broadcast, 16, 256 * kKiB);
  config.fidelity = Fidelity::Flow;
  config.seed = 90210;
  config.collectives = 8;
  config.runner.peel_asymmetric = true;
  config.faults.flap.mtbf_seconds = 60e-6;
  config.faults.flap.mttr_seconds = 25e-6;
  config.faults.flap.links = 12;
  config.faults.flap.horizon_seconds = 400e-6;

  const ScenarioResult r = run_scenario(fabric, config);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_GT(r.fault_downs, 0u);
  EXPECT_EQ(r.fault_ups, r.fault_downs);
  EXPECT_GT(r.recovered_deliveries, 0u)
      << "flapping never hit a live stream — the test lost its teeth";
}

// --- 4. determinism across sweep worker threads -----------------------------

TEST(FlowFidelity, ByteIdenticalAcrossSweepThreadCounts) {
  ::unsetenv("PEEL_BENCH_THREADS");  // the env override would defeat the test
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);

  SweepSpec spec;
  spec.base = base_config(Scheme::Peel, CollectiveKind::Broadcast, 16, 1 * kMiB);
  spec.base.fidelity = Fidelity::Flow;
  spec.schemes = {Scheme::Peel, Scheme::Ring};
  spec.message_sizes = {512 * kKiB, 1 * kMiB};
  spec.replicas = 2;
  spec.master_seed = 99;

  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const SweepResults serial = run_sweep(fabric, spec, one);
  const SweepResults parallel = run_sweep(fabric, spec, four);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const ScenarioResult& a = serial.cells()[i].result;
    const ScenarioResult& b = parallel.cells()[i].result;
    EXPECT_EQ(a.cct_seconds.values(), b.cct_seconds.values());
    EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
    EXPECT_EQ(a.core_bytes, b.core_bytes);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.segments, b.segments);
    EXPECT_EQ(a.unfinished, 0u);
  }
}

// The PR 9 workload engine (tenancy figure) under flow fidelity: job
// arrivals, churn, and group-table admission run unchanged; the run drains
// audit-clean with every job finished.
TEST(FlowFidelity, WorkloadEngineRunsUnderFlowFidelity) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);

  WorkloadConfig wc;
  wc.scheme = Scheme::Optimal;  // group-state scheme exercises admission
  wc.collective = CollectiveKind::Broadcast;
  wc.arrivals.group_sizes = {8};
  wc.arrivals.message_bytes = 512 * kKiB;
  wc.arrivals.jobs = 20;
  wc.arrivals.iterations = 2;
  wc.arrivals.rate_per_second = 20000.0;
  wc.churn.events_per_job = 1;
  wc.table_capacity = 64;
  wc.fidelity = Fidelity::Flow;
  wc.byte_audit = true;
  wc.watchdog = true;
  wc.seed = 31337;

  const WorkloadResult r = run_workload(fabric, wc);
  EXPECT_EQ(r.jobs_submitted, 20u);
  EXPECT_EQ(r.sim.unfinished, 0u);
  EXPECT_GT(r.sim.events, 0u);
}

// --- 5. analytic max-min ----------------------------------------------------

// Unicast streams along hand-picked paths of the k=4 fat-tree (hosts as
// endpoints, every link 12.5 B/ns), congestion control off: a flow's rate is
// exactly its max-min fair share. Chunks are sized rate * kT, with every
// share an exact binary fraction of the line rate, so each chunk finishes
// at kT exactly when its share is right.
class AnalyticMaxMin : public ::testing::Test {
 protected:
  static constexpr double kLineRate = 12.5;  // bytes/ns
  static constexpr SimTime kT = 100 * kMicrosecond;

  AnalyticMaxMin() : ft_(build_fat_tree(FatTreeConfig{4, 2, 0})) {
    sim_.congestion_control = false;
    net_ = std::make_unique<FlowNetwork>(ft_.topo, sim_, queue_);
    net_->set_delivery_handler([this](const DeliveryEvent& ev) {
      delivered_[{ev.stream, ev.chunk}] = queue_.now();
    });
  }

  /// Opens a unicast along consecutive nodes of `path` and sends one chunk.
  StreamId send_along(const std::vector<NodeId>& path, Bytes bytes) {
    StreamSpec spec;
    spec.source = path.front();
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      spec.forward[path[i]] = {ft_.topo.find_link(path[i], path[i + 1])};
    }
    spec.receivers = {path.back()};
    const StreamId s = net_->open_stream(std::move(spec));
    net_->send_chunk(s, 0, bytes);
    return s;
  }

  /// Bytes a flow at `rate` carries in `ns`.
  static Bytes carried(double rate, SimTime ns) {
    return static_cast<Bytes>(rate * static_cast<double>(ns));
  }

  /// Expects chunk 0 of `s` (`bytes` over `hops` links) delivered at
  /// `done` plus the path delay: per-hop propagation and the final
  /// segment's cut-through at line rate.
  void expect_delivered(StreamId s, Bytes bytes, int hops, SimTime done) {
    const Bytes seg = sim_.segment_bytes;
    const Bytes tail = bytes % seg > 0 ? bytes % seg : std::min(bytes, seg);
    const SimTime want =
        done + hops * ft_.config.link_propagation +
        static_cast<SimTime>(std::ceil(static_cast<double>(tail * hops) /
                                       kLineRate));
    const auto it = delivered_.find({s, 0});
    ASSERT_NE(it, delivered_.end()) << "stream " << s << " never delivered";
    EXPECT_NEAR(static_cast<double>(it->second), static_cast<double>(want),
                2.0)
        << "stream " << s;
  }

  FatTree ft_;
  SimConfig sim_;
  EventQueue queue_;
  std::unique_ptr<FlowNetwork> net_;
  std::map<std::pair<StreamId, int>, SimTime> delivered_;
  // Pod 0's switches.
  NodeId t0_ = ft_.tor_at(0, 0);
  NodeId t1_ = ft_.tor_at(0, 1);
  NodeId a0_ = ft_.agg_at(0, 0);
  NodeId a1_ = ft_.agg_at(0, 1);
};

// t0->a0 carries f1..f4 (level 1: C/4 each); a0->t1 carries f4, f5, f6
// (level 2: the 3C/4 left shared by f5, f6, 3C/8 each); t1->a1 carries f6,
// f7 (level 3: f7 gets the 5C/8 left).
TEST_F(AnalyticMaxMin, ThreeLevelFill) {
  const double c = kLineRate;
  const Bytes l1 = carried(c / 4, kT);
  const Bytes l2 = carried(3 * c / 8, kT);
  const Bytes l3 = carried(5 * c / 8, kT);
  std::vector<std::pair<StreamId, int>> flows;  // (stream, hops)
  for (int i = 0; i < 3; ++i) flows.emplace_back(send_along({t0_, a0_}, l1), 1);
  flows.emplace_back(send_along({t0_, a0_, t1_}, l1), 2);
  flows.emplace_back(send_along({a0_, t1_}, l2), 1);
  flows.emplace_back(send_along({a0_, t1_, a1_}, l2), 2);
  flows.emplace_back(send_along({t1_, a1_}, l3), 1);
  const Bytes bytes[] = {l1, l1, l1, l1, l2, l2, l3};
  queue_.run();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    expect_delivered(flows[i].first, bytes[i], flows[i].second, kT);
  }
}

// t0->a0 and a0->t1 both start at C/4 with four flows each, the tie going
// to the lower link id; whichever goes first, g4..g7 end at C/4 and g8, the
// second flow on t1->a1, gets the 3C/4 that g7 leaves.
TEST_F(AnalyticMaxMin, TiedBottlenecks) {
  const double c = kLineRate;
  const Bytes quarter = carried(c / 4, kT);
  const Bytes rest = carried(3 * c / 4, kT);
  std::vector<std::pair<StreamId, int>> flows;  // (stream, hops)
  for (int i = 0; i < 3; ++i) {
    flows.emplace_back(send_along({t0_, a0_}, quarter), 1);
  }
  flows.emplace_back(send_along({t0_, a0_, t1_}, quarter), 2);
  for (int i = 0; i < 2; ++i) {
    flows.emplace_back(send_along({a0_, t1_}, quarter), 1);
  }
  flows.emplace_back(send_along({a0_, t1_, a1_}, quarter), 2);
  const StreamId g8 = send_along({t1_, a1_}, rest);
  queue_.run();
  for (const auto& [s, hops] : flows) {
    expect_delivered(s, quarter, hops, kT);
  }
  expect_delivered(g8, rest, 1, kT);
}

// d crosses t0->a0->t1 and joins p (t0->a0) and q (a0->t1) into one
// component at C/2 each. When d finishes at kT/5 the component splits in
// two, and p and q each run alone at C.
TEST_F(AnalyticMaxMin, DepartureSplitsComponent) {
  const double c = kLineRate;
  constexpr SimTime kDone = kT / 5;
  const Bytes shared = carried(c / 2, kDone);
  const Bytes long_bytes = shared + carried(c, kT - kDone);
  const StreamId p = send_along({t0_, a0_}, long_bytes);
  const StreamId d = send_along({t0_, a0_, t1_}, shared);
  const StreamId q = send_along({a0_, t1_}, long_bytes);
  queue_.run();
  expect_delivered(d, shared, 2, kDone);
  expect_delivered(p, long_bytes, 1, kT);
  expect_delivered(q, long_bytes, 1, kT);
}

// Closing a stream mid-chunk hands its bandwidth to its neighbours: a
// (2 x 8 MiB) and b (4 MiB) share h0->t0->h1 at C/2 until a closes at
// 10 us, after which b runs alone at C.
TEST_F(AnalyticMaxMin, ClosingAnActiveStreamReRatesItsNeighbours) {
  const NodeId h0 = ft_.hosts[0];
  const NodeId h1 = ft_.hosts[1];
  const StreamId a = send_along({h0, t0_, h1}, 8 * kMiB);
  net_->send_chunk(a, 1, 8 * kMiB);
  const StreamId b = send_along({h0, t0_, h1}, 4 * kMiB);
  constexpr SimTime kClose = 10 * kMicrosecond;
  queue_.after(kClose, [this, a] { net_->close_stream(a); });
  queue_.run();
  const double alone_ns =
      static_cast<double>(4 * kMiB - carried(kLineRate / 2, kClose)) /
      kLineRate;
  expect_delivered(b, 4 * kMiB, 2,
                   kClose + static_cast<SimTime>(std::ceil(alone_ns)));
  EXPECT_EQ(delivered_.count({a, 0}), 0u);
}

}  // namespace
}  // namespace peel
