// Shard-invariance suite: the pod-sharded engine (src/sim/sharded.h) must be
// an execution knob, not a semantics knob. The domain decomposition is a
// pure function of the topology, so any two positive shard counts must
// produce byte-identical results — CCT samples, byte counters, event counts,
// telemetry CSVs — and identical fault handling: a run with outages on
// cross-shard links (leaf-spine spine links live in the core domain) still
// passes the byte-conservation audit, proving exactly-once delivery through
// recovery at every worker count. The k=32 fat-tree broadcast pins the
// acceptance scale from the issue.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/collectives/runner.h"
#include "src/faults/injector.h"
#include "src/faults/schedule.h"
#include "src/harness/experiment.h"
#include "src/routing/topology_events.h"
#include "src/sim/sharded.h"
#include "src/sim/trace.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

/// Every simulated-output field of a ScenarioResult. Wall-clock fields
/// (delta_apply_*_us) are intentionally absent: they measure the host, not
/// the simulation.
void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.cct_seconds.count(), b.cct_seconds.count());
  EXPECT_EQ(a.cct_seconds.values(), b.cct_seconds.values());
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.core_bytes, b.core_bytes);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.segments_lost, b.segments_lost);
  EXPECT_EQ(a.pfc_pauses, b.pfc_pauses);
  EXPECT_EQ(a.ecn_marks, b.ecn_marks);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.fault_downs, b.fault_downs);
  EXPECT_EQ(a.fault_ups, b.fault_ups);
  EXPECT_EQ(a.recovered_deliveries, b.recovered_deliveries);
  EXPECT_EQ(a.plan_cache.hits, b.plan_cache.hits);
  EXPECT_EQ(a.plan_cache.misses, b.plan_cache.misses);
  EXPECT_EQ(a.plan_cache.invalidations, b.plan_cache.invalidations);
  EXPECT_EQ(a.plan_cache.repairs, b.plan_cache.repairs);
  EXPECT_EQ(a.delta_applies, b.delta_applies);
  EXPECT_EQ(a.delta_plans_repaired, b.delta_plans_repaired);
  EXPECT_EQ(a.delta_plans_evicted, b.delta_plans_evicted);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The figure-style scenario: a 64-GPU fat-tree (4 pods + core = 5 domains),
// striped PEEL broadcasts, sampled telemetry, audit + watchdog. Results AND
// both telemetry CSV exports must be byte-identical at 1, 2, and 8 shards.
TEST(ShardInvariance, FigureScenarioByteIdenticalAcrossShardCounts) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.group_size = 16;
  config.message_bytes = 1 * kMiB;
  config.collectives = 6;
  config.seed = 777;
  config.byte_audit = true;
  config.watchdog = true;
  config.runner.stripe_trees = 2;
  config.sim.telemetry.enabled = true;
  config.sim.telemetry.sample_interval = 20 * kMicrosecond;

  ScenarioResult results[3];
  std::string link_csv[3];
  std::string samples_csv[3];
  const int shard_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    config.shards = shard_counts[i];
    results[i] = run_scenario(fabric, config);
    ASSERT_NE(results[i].telemetry, nullptr);
    const std::string dir = ::testing::TempDir();
    const std::string links =
        dir + "/shard" + std::to_string(shard_counts[i]) + "_links.csv";
    const std::string samples =
        dir + "/shard" + std::to_string(shard_counts[i]) + "_samples.csv";
    write_link_telemetry_csv(links, *results[i].telemetry);
    write_queue_samples_csv(samples, *results[i].telemetry);
    link_csv[i] = slurp(links);
    samples_csv[i] = slurp(samples);
  }

  for (int i = 1; i < 3; ++i) {
    SCOPED_TRACE("shards=" + std::to_string(shard_counts[i]) + " vs shards=1");
    expect_identical(results[0], results[i]);
    EXPECT_EQ(link_csv[0], link_csv[i]) << "link telemetry CSV diverged";
    EXPECT_EQ(samples_csv[0], samples_csv[i]) << "queue-depth CSV diverged";
  }
  EXPECT_EQ(results[0].unfinished, 0u);
  EXPECT_GT(link_csv[0].size(), 100u) << "CSV export suspiciously empty";
}

// Every collective flavor drains audit-clean under sharding and agrees
// across worker counts — the engines share all collective logic, so a
// divergence here is a cross-domain ordering bug, not a collective bug.
TEST(ShardInvariance, AllCollectiveKindsAuditCleanAcrossShardCounts) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  for (const CollectiveKind kind :
       {CollectiveKind::Broadcast, CollectiveKind::AllGather,
        CollectiveKind::AllReduce}) {
    SCOPED_TRACE(to_string(kind));
    ScenarioConfig config;
    config.scheme = Scheme::Peel;
    config.collective = kind;
    config.group_size = 16;
    config.message_bytes = 512 * kKiB;
    config.collectives = 4;
    config.seed = 4242;
    config.byte_audit = true;
    config.watchdog = true;

    config.shards = 2;
    const ScenarioResult two = run_scenario(fabric, config);
    config.shards = 8;
    const ScenarioResult eight = run_scenario(fabric, config);
    expect_identical(two, eight);
    EXPECT_EQ(two.unfinished, 0u);
  }
}

// A backlogged, repeated-source Broadcast: one group reused by every
// collective at 80% load keeps many streams waiting on the source's buffer,
// so each drained segment wakes a batch of blocked injectors at once. The
// injectors are replica-local in the sharded engine; the batched wake must
// land identically at one worker and at three, event count included.
TEST(ShardInvariance, BackloggedSourceWakeByteIdenticalAcrossShardCounts) {
  FatTreeConfig ftc;
  ftc.k = 8;
  ftc.gpus_per_host = 2;
  const FatTree ft = build_fat_tree(ftc);
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.group_size = 12;
  config.message_bytes = 2 * kMiB;
  config.sim.segment_bytes = 64 * kKiB;
  config.group_pool = 1;
  config.offered_load = 0.8;
  config.collectives = 12;
  config.byte_audit = true;

  config.shards = 1;
  const ScenarioResult one = run_scenario(fabric, config);
  config.shards = 3;
  const ScenarioResult three = run_scenario(fabric, config);
  expect_identical(one, three);
  EXPECT_EQ(one.unfinished, 0u);
  EXPECT_GT(one.pfc_pauses, 0u) << "the sources never backed up";
  // One Pump event per woken injector ran this workload in 48,295 events;
  // batching every release's wake brings it to 26,962. Staying well under
  // the per-waiter count shows multi-injector wakes really fire here.
  EXPECT_LT(one.events, 40000u) << "no release woke a batch of injectors";
}

// In-network reduction under sharding: the fused reduce stream's combining
// state lives inside each pod domain (contributions absorb and emit without
// crossing a mailbox), so InNet AllReduce must be byte-identical at every
// worker count and drain audit-clean — a divergence means combining state
// leaked across a shard boundary. reduce_sram_peak is deliberately NOT
// compared: the sharded engine sums per-domain peaks (an upper bound on the
// global peak), so only its positivity is invariant. The companion
// reduce_sram_peak_max_domain (hottest single domain — a lower bound and the
// per-switch-budget figure) must bracket the bound the other way.
TEST(ShardInvariance, InNetAllReduceByteIdenticalAcrossShardCounts) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.scheme = Scheme::InNet;
  config.collective = CollectiveKind::AllReduce;
  config.group_size = 16;
  config.message_bytes = 512 * kKiB;
  config.collectives = 4;
  config.seed = 4242;
  config.byte_audit = true;
  config.watchdog = true;

  ScenarioResult results[3];
  const int shard_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    config.shards = shard_counts[i];
    results[i] = run_scenario(fabric, config);
  }
  for (int i = 1; i < 3; ++i) {
    SCOPED_TRACE("shards=" + std::to_string(shard_counts[i]) + " vs shards=1");
    expect_identical(results[0], results[i]);
  }
  EXPECT_EQ(results[0].unfinished, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(results[i].reduce_sram_peak, 0u)
        << "switch combining never ran at shards=" << shard_counts[i];
    // max-domain <= sum-of-domains, always.
    EXPECT_GT(results[i].reduce_sram_peak_max_domain, 0u);
    EXPECT_LE(results[i].reduce_sram_peak_max_domain,
              results[i].reduce_sram_peak)
        << "shards=" << shard_counts[i];
  }

  // The solo engine keeps one fabric-wide gauge, so both figures coincide
  // there — solo cells stay comparable to sharded max_domain by definition.
  config.shards = 0;
  const ScenarioResult solo = run_scenario(fabric, config);
  EXPECT_GT(solo.reduce_sram_peak, 0u);
  EXPECT_EQ(solo.reduce_sram_peak_max_domain, solo.reduce_sram_peak);
}

// Outages on cross-shard links: on the leaf-spine fabric every spine sits in
// the core domain, so each flapped spine-leaf pair straddles a shard
// boundary, and its TopologyDelta / recovery pass must land identically at
// every worker count. The byte audit makes the exactly-once claim a hard
// failure: a delivery replayed twice (or lost at a mailbox boundary) throws.
TEST(ShardInvariance, CrossShardFaultRecoveryIsExactlyOnce) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.runner.peel_asymmetric = true;  // trees must tolerate mid-run damage
  config.group_size = 16;
  config.message_bytes = 256 * kKiB;
  config.offered_load = 0.3;
  config.collectives = 8;
  config.seed = 90210;
  config.byte_audit = true;
  config.watchdog = true;
  config.faults.flap.mtbf_seconds = 60e-6;
  config.faults.flap.mttr_seconds = 25e-6;
  config.faults.flap.links = 12;
  config.faults.flap.horizon_seconds = 400e-6;

  ScenarioResult results[3];
  const int shard_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    config.shards = shard_counts[i];
    results[i] = run_scenario(fabric, config);
  }
  for (int i = 1; i < 3; ++i) {
    SCOPED_TRACE("shards=" + std::to_string(shard_counts[i]) + " vs shards=1");
    expect_identical(results[0], results[i]);
  }
  EXPECT_EQ(results[0].unfinished, 0u);
  EXPECT_GT(results[0].fault_downs, 0u);
  EXPECT_EQ(results[0].fault_ups, results[0].fault_downs);
  EXPECT_GT(results[0].recovered_deliveries, 0u)
      << "flapping never hit a live stream — the test lost its teeth";
  EXPECT_GT(results[0].delta_applies, 0u)
      << "fault deltas must be measured by the apply-latency counters";
}

// Dense fault schedule: flap fast enough that the control plane fires every
// few microseconds, clamping nearly every advance window to the next
// control event. This is the regime the adaptive window fast path targets
// (single-busy-domain windows run inline on the coordinator instead of
// waking the pool), so this test pins the claim that the fast path is an
// execution detail only: results stay byte-identical at 1, 2, and 8 shards
// and the byte audit stays clean through every truncation/re-admission.
TEST(ShardInvariance, DenseFaultScheduleByteIdenticalAcrossShardCounts) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.runner.peel_asymmetric = true;
  config.group_size = 16;
  config.message_bytes = 256 * kKiB;
  config.offered_load = 0.3;
  config.collectives = 8;
  config.seed = 90210;
  config.byte_audit = true;
  config.watchdog = true;
  // ~4x denser than CrossShardFaultRecoveryIsExactlyOnce: a control event
  // roughly every handful of microseconds across 12 flapping links.
  config.faults.flap.mtbf_seconds = 15e-6;
  config.faults.flap.mttr_seconds = 8e-6;
  config.faults.flap.links = 12;
  config.faults.flap.horizon_seconds = 400e-6;

  ScenarioResult results[3];
  const int shard_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    config.shards = shard_counts[i];
    results[i] = run_scenario(fabric, config);
  }
  for (int i = 1; i < 3; ++i) {
    SCOPED_TRACE("shards=" + std::to_string(shard_counts[i]) + " vs shards=1");
    expect_identical(results[0], results[i]);
  }
  EXPECT_EQ(results[0].unfinished, 0u);
  EXPECT_GT(results[0].fault_downs, 20u)
      << "schedule not dense enough to stress the window loop";
  EXPECT_EQ(results[0].fault_ups, results[0].fault_downs);
  EXPECT_GT(results[0].recovered_deliveries, 0u)
      << "flapping never hit a live stream — the test lost its teeth";
}

// The adaptive fast path itself: a stream confined to one pod (host to a
// sibling host under the same ToR) puts every data-plane event in a single
// domain, so every advance window must take the inline path — the pool
// barrier is never paid — while deliveries still fire normally.
TEST(ShardInvariance, SingleDomainWindowsRunInline) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  auto link_between = [&](NodeId src, NodeId dst) {
    for (LinkId l = 0; l < static_cast<LinkId>(ft.topo.link_count()); ++l) {
      if (ft.topo.link(l).src == src && ft.topo.link(l).dst == dst) return l;
    }
    ADD_FAILURE() << "no link " << src << " -> " << dst;
    return kInvalidLink;
  };
  const NodeId a = ft.hosts[0];
  const NodeId b = ft.hosts[1];  // locality order: same ToR as hosts[0]
  const NodeId tor = ft.tors[0];

  SimConfig sim;
  ShardedNetwork net(ft.topo, sim, 2);
  int delivered = 0;
  net.set_delivery_handler([&](const DeliveryEvent&) { ++delivered; });

  StreamSpec spec;
  spec.source = a;
  spec.links = {link_between(a, tor), link_between(tor, b)};
  spec.receivers = {b};
  const StreamId id = net.open_stream(std::move(spec));
  net.send_chunk(id, 0, 256 * kKiB);
  net.send_chunk(id, 1, 256 * kKiB);
  net.run();
  net.close_stream(id);

  EXPECT_EQ(delivered, 2);
  EXPECT_GT(net.windows_inline(), 0u)
      << "single-domain windows should bypass the pool barrier";
  EXPECT_EQ(net.windows_parallel(), 0u)
      << "no window held events in more than one domain";
}

/// What a congested cross-pod multicast run gives on the sharded engine.
struct CnpCrossing {
  /// Deliveries, drain clock and data-plane counters.
  std::uint64_t signature = 0;
  std::uint64_t events = 0;
  std::uint64_t windows_inline = 0;
  std::uint64_t windows_parallel = 0;
  std::vector<std::uint64_t> reactions;  ///< per stream
  std::vector<std::uint64_t> cnps_seen;  ///< per stream
};

/// Two multicasts from pod 0 (GPU 0 of hosts 0 and 1, under ToR t0) share
/// t0's up-link, with every queued segment marked, toward the GPUs of host
/// 2 (pod 0, under the other ToR), host 4 and its GPUs (pod 1) and the GPUs
/// of host 8 (pod 2). So every mark sends CNPs back to the source from its
/// own domain and from two others. Wires of 5 us make the lookahead, hence
/// each merge batch, 5 us wide, so a batch holds local and cross-domain
/// CNPs of both sources whose arrival order differs from the order they
/// were posted and mailed in.
CnpCrossing run_cnp_crossing(CnpMode mode, int shards) {
  FatTreeConfig cfg{4, 2, 4};
  cfg.link_propagation = 5 * kMicrosecond;
  const FatTree ft = build_fat_tree(cfg);
  const Topology& topo = ft.topo;
  SimConfig sim;
  sim.ecn_kmin = 0;
  sim.ecn_kmax = 1;
  ShardedNetwork net(topo, sim, shards);
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t v) {
    hash = (hash ^ v) * 1099511628211ULL;
  };
  net.set_delivery_handler([&](const DeliveryEvent& ev) {
    mix(static_cast<std::uint64_t>(net.control().now()));
    mix(static_cast<std::uint64_t>(ev.stream));
    mix(static_cast<std::uint64_t>(ev.receiver));
    mix(static_cast<std::uint64_t>(ev.chunk));
  });
  const auto host = [&](int h) {
    return ft.hosts[static_cast<std::size_t>(h)];
  };
  /// GPU `i` of host `h` (hosts carry four GPUs each, in locality order).
  const auto gpu = [&](int h, int i) {
    return ft.gpus[static_cast<std::size_t>(4 * h + i)];
  };
  const auto spec_from = [&](int source_host) {
    StreamSpec s;
    s.source = gpu(source_host, 0);
    s.cnp_mode = mode;
    const auto edge = [&](NodeId a, NodeId b) {
      s.links.push_back(topo.find_link(a, b));
    };
    const auto down = [&](NodeId agg, int tor, int h) {
      const NodeId t = ft.tor_at(tor / 2, tor % 2);
      edge(agg, t);
      edge(t, host(h));
      for (int i = 0; i < 4; ++i) {
        edge(host(h), gpu(h, i));
        s.receivers.push_back(gpu(h, i));
      }
    };
    const NodeId t0 = ft.tor_at(0, 0);
    const NodeId agg0 = ft.agg_at(0, 0);
    const NodeId core = ft.core_at(0, 0);
    edge(s.source, host(source_host));
    edge(host(source_host), t0);
    edge(t0, agg0);
    down(agg0, 1, 2);
    edge(agg0, core);
    for (const int pod : {1, 2}) {
      const NodeId agg = ft.agg_at(pod, 0);
      edge(core, agg);
      down(agg, 2 * pod, 4 * pod);
    }
    s.receivers.push_back(host(4));
    return s;
  };
  const StreamId a = net.open_stream(spec_from(0));
  const StreamId b = net.open_stream(spec_from(1));
  for (int c = 0; c < 4; ++c) {
    net.send_chunk(a, c, 1 * kMiB);
    net.send_chunk(b, c, 1 * kMiB);
  }
  net.run();
  mix(static_cast<std::uint64_t>(net.now()));
  mix(net.segments_serialized());
  mix(net.segments_marked());
  mix(net.pfc_pauses());
  CnpCrossing r;
  r.signature = hash;
  r.events = net.events_processed();
  r.windows_inline = net.windows_inline();
  r.windows_parallel = net.windows_parallel();
  for (const StreamId s : {a, b}) {
    r.reactions.push_back(net.stream_cc(s).reactions());
    r.cnps_seen.push_back(net.stream_cc(s).cnps_seen());
  }
  return r;
}

// Guard-swallowed CNPs are admitted at the mailbox merge, where the sender's
// domain first knows the order its local and cross-domain CNPs arrive in.
// Dropping them must move nothing but the event count: deliveries, drain
// clock, reactions, CNPs seen and the window counters are pinned to what the
// run gave when every CNP was scheduled, at 1 and at 3 workers. The modes
// that react to every CNP keep every CNP event.
TEST(ShardInvariance, GuardSwallowedCrossDomainCnpsMoveOnlyTheEventCount) {
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const CnpCrossing guard = run_cnp_crossing(CnpMode::SenderGuard, shards);
    EXPECT_EQ(guard.signature, 0x2cc2833e05bde5d8ULL);
    EXPECT_EQ(guard.reactions, (std::vector<std::uint64_t>{11, 8}));
    EXPECT_EQ(guard.cnps_seen, (std::vector<std::uint64_t>{364, 312}));
    EXPECT_EQ(guard.windows_inline, 28u);
    EXPECT_EQ(guard.windows_parallel, 445u);
    EXPECT_LT(guard.events, 7052u);  // every CNP scheduled

    EXPECT_EQ(run_cnp_crossing(CnpMode::ReceiverTimer, shards).events, 6480u);
    EXPECT_EQ(run_cnp_crossing(CnpMode::Unthrottled, shards).events, 6766u);
  }
}

// Same config, same shard count, run twice: the parallel engine must be
// deterministic against itself, not just against the 1-worker execution.
TEST(ShardInvariance, ShardedReplayIsDeterministic) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config;
  config.scheme = Scheme::Peel;
  config.group_size = 16;
  config.message_bytes = 1 * kMiB;
  config.collectives = 6;
  config.seed = 31337;
  config.byte_audit = true;
  config.watchdog = true;
  config.shards = 8;

  const ScenarioResult a = run_scenario(fabric, config);
  const ScenarioResult b = run_scenario(fabric, config);
  expect_identical(a, b);
}

// Acceptance scale: a k=32 fat-tree (32 pods + core = 33 domains) broadcast
// completes under the sharded engine, audit-clean, with identical bandwidth
// accounting at 2 and 8 workers. Host counts are kept lean (1 host per ToR,
// 1 GPU per host) so the test exercises the pod fan-out, not the NVLink
// tier.
TEST(ShardInvariance, K32FatTreeBroadcastCompletesSharded) {
  FatTreeConfig cfg;
  cfg.k = 32;
  cfg.hosts_per_tor = 1;
  cfg.gpus_per_host = 1;
  const FatTree ft = build_fat_tree(cfg);
  const Fabric fabric = Fabric::of(ft);

  SingleRunOptions options;
  options.scheme = Scheme::Peel;
  options.message_bytes = 1 * kMiB;
  options.byte_audit = true;
  // A group spanning many pods: every 5th host across the whole fabric.
  options.group.source = ft.hosts.front();
  for (std::size_t i = 5; i < ft.hosts.size(); i += 5) {
    options.group.destinations.push_back(ft.hosts[i]);
  }

  options.shards = 2;
  const SingleResult two = run_single_broadcast(fabric, options);
  options.shards = 8;
  const SingleResult eight = run_single_broadcast(fabric, options);

  EXPECT_GT(two.cct_seconds, 0.0);
  EXPECT_DOUBLE_EQ(two.cct_seconds, eight.cct_seconds);
  EXPECT_EQ(two.fabric_bytes, eight.fabric_bytes);
  EXPECT_EQ(two.core_bytes, eight.core_bytes);
  EXPECT_EQ(two.nvlink_bytes, eight.nvlink_bytes);
  EXPECT_GT(two.fabric_bytes, 0u);
}

/// What one congested, flapping PEEL broadcast run leaves on each link.
struct LinkLedger {
  std::vector<Bytes> link_bytes;       ///< ShardedNetwork::link_bytes, by id
  std::vector<Bytes> telemetry_bytes;  ///< merged telemetry, by id
  std::uint64_t segments = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t lost = 0;
  std::uint64_t downs = 0;
  std::size_t recovered = 0;
};

/// Four simultaneous PEEL broadcasts, one from each pod of a k=4 fat-tree to
/// every GPU of the other three pods, while switch-to-switch links flap
/// (inside pods and to the core): buffers fill and PFC pauses ingress
/// ports, failures drop queued and in-flight segments, and recovery re-sends
/// them.
LinkLedger run_flapping_broadcast(int shards) {
  FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  SimConfig sim;
  sim.telemetry.enabled = true;
  ShardedNetwork net(ft.topo, sim, shards);
  CollectiveRunner runner(fabric, net, net.control(), Rng(11), RunnerOptions{});

  LinkLedger r;
  TopologyEventBus bus;
  bus.subscribe(&runner);
  FaultInjector injector(ft.topo, net, net.control(), &bus);
  injector.set_handler([&](const AppliedFault&) {
    net.control().after(2 * kMicrosecond,
                        [&] { r.recovered += runner.recover_all(); });
  });
  FlapProcess flap;
  flap.mtbf_seconds = 80e-6;
  flap.mttr_seconds = 20e-6;
  flap.links = 12;
  flap.horizon_seconds = 300e-6;
  Rng flap_rng(12);
  injector.arm(
      generate_flap_schedule(duplex_fabric_links(ft.topo), flap, flap_rng));

  const std::size_t per_pod = ft.gpus.size() / 4;
  for (std::size_t pod = 0; pod < 4; ++pod) {
    BroadcastRequest req;
    req.id = pod + 1;
    req.source = ft.gpus[pod * per_pod];
    for (std::size_t g = 0; g < ft.gpus.size(); ++g) {
      if (g / per_pod != pod) req.destinations.push_back(ft.gpus[g]);
    }
    req.message_bytes = 2 * kMiB;
    runner.submit(Scheme::Peel, req);
  }
  net.run();

  const Telemetry* telem = net.merged_telemetry();
  const TelemetrySummary summary = telem->summary(net.now());
  r.telemetry_bytes.assign(ft.topo.link_count(), 0);
  for (const LinkTelemetry& row : summary.links) {
    r.telemetry_bytes[static_cast<std::size_t>(row.link)] = row.bytes;
  }
  for (LinkId l = 0; l < static_cast<LinkId>(ft.topo.link_count()); ++l) {
    r.link_bytes.push_back(net.link_bytes(l));
  }
  r.segments = net.segments_serialized();
  r.pfc_pauses = net.pfc_pauses();
  r.lost = net.segments_lost();
  r.downs = injector.downs_applied();
  return r;
}

// The slot mapping, link by link: every domain keeps its links' counters
// at dense slots, so a wrong slot or a stale mirror epoch moves some link's
// bytes even where the totals still match. Each link must read the same at
// 1 and 3 workers, agree with the telemetry's own by-id count, and the links
// must sum to the bytes serialized; the by-id vector is pinned.
TEST(ShardInvariance, LinkBytesMatchLinkByLinkUnderFlapsAndCongestion) {
  const LinkLedger one = run_flapping_broadcast(1);
  const LinkLedger three = run_flapping_broadcast(3);
  ASSERT_EQ(one.link_bytes.size(), three.link_bytes.size());
  for (std::size_t l = 0; l < one.link_bytes.size(); ++l) {
    EXPECT_EQ(one.link_bytes[l], three.link_bytes[l]) << "link " << l;
    EXPECT_EQ(one.link_bytes[l], one.telemetry_bytes[l]) << "link " << l;
  }
  Bytes sum = 0;
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const Bytes b : one.link_bytes) {
    sum += b;
    hash = (hash ^ static_cast<std::uint64_t>(b)) * 1099511628211ULL;
  }
  // Every chunk is a whole number of segments, so every segment is full.
  EXPECT_EQ(sum, static_cast<Bytes>(one.segments) * SimConfig{}.segment_bytes);
  EXPECT_EQ(one.segments, three.segments);
  EXPECT_EQ(one.pfc_pauses, three.pfc_pauses);
  EXPECT_EQ(one.lost, three.lost);
  EXPECT_EQ(hash, 0xf78c847486ba24a5ULL);
  EXPECT_GT(one.pfc_pauses, 0u) << "no congestion";
  EXPECT_GT(one.lost, 0u) << "no flap hit a live segment";
  EXPECT_GT(one.downs, 0u);
  EXPECT_GT(one.recovered, 0u);
}

/// Heap bytes in use (glibc: arena chunks plus mmapped blocks).
std::size_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

// A sharded domain holds state only for the nodes and links it owns, so a
// one-worker sharded engine's idle state stays within 2x the solo engine's
// however many domains the fabric has (k + 1 on a fat-tree), not k + 1 full
// copies of the fabric.
TEST(ShardInvariance, IdleStateIsAtMostTwiceSolo) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator does not report to mallinfo2";
#endif
  for (const int k : {8, 16, 32}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    FatTreeConfig cfg;
    cfg.k = k;
    cfg.hosts_per_tor = 8;
    cfg.gpus_per_host = 8;
    const FatTree ft = build_fat_tree(cfg);
    const SimConfig sim;

    std::size_t base = heap_in_use();
    auto queue = std::make_unique<EventQueue>();
    auto solo = std::make_unique<Network>(ft.topo, sim, *queue);
    const std::size_t solo_bytes = heap_in_use() - base;
    solo.reset();
    queue.reset();

    base = heap_in_use();
    auto sharded = std::make_unique<ShardedNetwork>(ft.topo, sim, 1);
    const std::size_t sharded_bytes = heap_in_use() - base;
    sharded.reset();

    EXPECT_GT(solo_bytes, 0u);
    EXPECT_LE(sharded_bytes, 2 * solo_bytes)
        << "solo " << solo_bytes << " B, sharded " << sharded_bytes << " B";
  }
}

}  // namespace
}  // namespace peel
