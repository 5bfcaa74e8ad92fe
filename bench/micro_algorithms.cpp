// Microbenchmarks (google-benchmark): the paper's algorithmic claims are
// about *polynomial-time* tree construction and O(k) state — these measure
// the actual costs so the scaling is visible. The last eleven isolate
// simulator components: the event scheduler in steady state and in bursts,
// a plan-cache hit, opening + closing one stream on each data-plane engine,
// building an idle packet engine, the flow engine's max-min solve against
// component size, the packet engine draining a source that many streams
// are backed up behind, one segment hop of the packet engine
// (FinishTx -> Arrive -> enqueue), a rate
// controller catching up on a long quiet spell, the sharded engine's
// windows and mailbox drain on a congested cross-pod broadcast, and the
// collective runner's delivery handler.
//
// Every row also carries `calibration_s`: perfbench's host-speed kernel
// (perfbench/calibrate.h), timed on one thread right after the row. The
// shared hosts these run on drift by tens of percent within minutes, so
// compare two rows only after scaling each by its calibration_s.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/calibrate.h"
#include "src/collectives/plan_cache.h"
#include "src/collectives/runner.h"
#include "src/collectives/trees.h"
#include "src/common/rng.h"
#include "src/prefix/cover.h"
#include "src/prefix/plan.h"
#include "src/prefix/prefix.h"
#include "src/routing/router.h"
#include "src/sim/dcqcn.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/steiner/layer_peel.h"
#include "src/steiner/symmetric.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

void BM_BuildFatTree(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FatTree ft = build_fat_tree(FatTreeConfig{k, -1, 0});
    benchmark::DoNotOptimize(ft.topo.node_count());
  }
  state.SetLabel(std::to_string(
      build_fat_tree(FatTreeConfig{k, -1, 0}).topo.node_count()) + " nodes");
}
BENCHMARK(BM_BuildFatTree)->Arg(8)->Arg(16)->Arg(32);

void BM_LayerPeelTree(benchmark::State& state) {
  // Asymmetric leaf-spine; group size scales.
  const int group = static_cast<int>(state.range(0));
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 2, 0});
  Rng rng(1);
  fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.05, rng);
  std::vector<NodeId> pool = ls.hosts;
  rng.shuffle(pool);
  const NodeId source = pool[0];
  const std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + group);
  for (auto _ : state) {
    MulticastTree tree = layer_peel_tree(ls.topo, source, dests);
    benchmark::DoNotOptimize(tree.link_count());
  }
}
BENCHMARK(BM_LayerPeelTree)->Arg(8)->Arg(32)->Arg(64);

void BM_OptimalFatTreeTree(benchmark::State& state) {
  const FatTree ft = build_fat_tree(FatTreeConfig{16, -1, 0});
  Rng rng(2);
  std::vector<NodeId> pool = ft.hosts;
  rng.shuffle(pool);
  const NodeId source = pool[0];
  const std::vector<NodeId> dests(pool.begin() + 1,
                                  pool.begin() + 1 + state.range(0));
  for (auto _ : state) {
    MulticastTree tree = optimal_fat_tree_tree(ft, source, dests, 3);
    benchmark::DoNotOptimize(tree.link_count());
  }
}
BENCHMARK(BM_OptimalFatTreeTree)->Arg(16)->Arg(64)->Arg(256);

void BM_ExactCover(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(3);
  MemberSet members(std::size_t{1} << m, 0);
  for (auto& b : members) b = rng.next_below(2) == 0;
  for (auto _ : state) {
    auto cover = exact_cover(members, m);
    benchmark::DoNotOptimize(cover.size());
  }
}
BENCHMARK(BM_ExactCover)->Arg(4)->Arg(6)->Arg(10);

void BM_BoundedCover(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(4);
  MemberSet members(std::size_t{1} << m, 0);
  for (auto& b : members) b = rng.next_below(3) == 0;
  for (auto _ : state) {
    auto cover = bounded_cover(members, m, 4);
    benchmark::DoNotOptimize(cover.redundant);
  }
}
BENCHMARK(BM_BoundedCover)->Arg(4)->Arg(6)->Arg(8);

void BM_BuildPeelPlan(benchmark::State& state) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  Rng rng(5);
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  const NodeId source = pool[0];
  const std::vector<NodeId> dests(pool.begin() + 1,
                                  pool.begin() + 1 + state.range(0));
  for (auto _ : state) {
    PeelPlan plan = build_peel_plan(ft, source, dests);
    benchmark::DoNotOptimize(plan.packets.size());
  }
}
BENCHMARK(BM_BuildPeelPlan)->Arg(32)->Arg(128)->Arg(512);

void BM_PrefixRuleTableBuild(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PrefixRuleTable table(m, 1 << m);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_PrefixRuleTableBuild)->Arg(5)->Arg(6)->Arg(10);

void BM_EcmpPath(benchmark::State& state) {
  const FatTree ft = build_fat_tree(FatTreeConfig{16, -1, 0});
  Router router(ft.topo);
  std::uint64_t flow = 0;
  for (auto _ : state) {
    Route r = router.path(ft.hosts.front(), ft.hosts.back(), flow++);
    benchmark::DoNotOptimize(r.hops());
  }
}
BENCHMARK(BM_EcmpPath);

/// Self-sustaining event churn: every fired event reschedules itself a
/// pseudo-random delta ahead, so the queue holds a constant population while
/// the clock advances — the pop-one-push-one steady state of a simulation.
struct ChurnSink final : SimEventSink {
  EventQueue* queue = nullptr;
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;

  /// Mostly ladder-scale deltas (1 ns – ~8 µs, the serialization/propagation
  /// range) with every 256th event thrown ~1 ms out, so rungs, the active
  /// heap, overflow, and rebase all stay on the measured path.
  SimTime next_delta() noexcept {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t draw = lcg >> 33;
    if ((draw & 0xff) == 0) return kMillisecond;
    return 1 + static_cast<SimTime>(draw % 8192);
  }

  void on_sim_event(const SimEvent& ev) override {
    queue->after(next_delta(), ev);
  }
};

void BM_SchedulerSteadyState(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  EventQueue queue;
  ChurnSink sink;
  sink.queue = &queue;
  queue.bind_sink(&sink);
  SimEvent ev;
  ev.kind = SimEventKind::Pump;
  for (std::size_t i = 0; i < depth; ++i) queue.after(sink.next_delta(), ev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerSteadyState)->Arg(1 << 10)->Arg(1 << 15)->Arg(1 << 18);

/// Synchronous bursts: every fired event reschedules itself kStep ns ahead,
/// so the whole population moves from instant to instant together — the
/// regime of a wide broadcast, where hundreds of links finish serializing
/// at the same time. Each instant's events sit in one rung, and the
/// reschedules land inside the open window.
struct BurstSink final : SimEventSink {
  static constexpr SimTime kStep = 5;
  EventQueue* queue = nullptr;

  void on_sim_event(const SimEvent& ev) override { queue->after(kStep, ev); }
};

void BM_SchedulerBurst(benchmark::State& state) {
  const auto burst = static_cast<std::int32_t>(state.range(0));
  EventQueue queue;
  BurstSink sink;
  sink.queue = &queue;
  queue.bind_sink(&sink);
  SimEvent ev;
  ev.kind = SimEventKind::Pump;
  for (std::int32_t i = 0; i < burst; ++i) {
    ev.a = i;
    queue.at(0, ev);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.step());
  }
  // Seconds per event (kInvert of a rate): "20n" = 20 ns.
  state.counters["time_per_event"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_SchedulerBurst)->Arg(64)->Arg(4096);

void BM_PlanCacheHit(benchmark::State& state) {
  // One k=16, 64-GPU PeelPlan key, served from the cache after one miss.
  const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
  const std::vector<NodeId>& gpus = ft.endpoints();
  const NodeId source = gpus.front();
  const std::vector<NodeId> dests(gpus.begin() + 1, gpus.begin() + 64);
  TreePlanCache cache;
  auto lookup = [&] {
    return cache.get_or_build(PlanKind::PeelPlan, source, dests, PeelCoverOptions{},
                              [&] { return build_peel_plan(ft, source, dests); });
  };
  (void)lookup();  // the one miss
  for (auto _ : state) {
    benchmark::DoNotOptimize(lookup()->packets.size());
  }
}
BENCHMARK(BM_PlanCacheHit);

void BM_OpenStream(benchmark::State& state) {
  // open_stream + close_stream for one 64-GPU group spread over a k-ary
  // fat-tree: arg 1 = 0 opens one PEEL multicast packet class, 1 the InNet
  // fused reduce stream; arg 2 picks the engine: 0 the solo packet Network,
  // 1 the sharded engine with one worker, 2 the flow engine. Every engine
  // builds only tree-sized state per open replica, so the cost tracks the
  // group, not the fabric; the sharded engine opens a replica in every
  // domain the stream touches.
  const int k = static_cast<int>(state.range(0));
  const bool reduce = state.range(1) != 0;
  const int engine = static_cast<int>(state.range(2));
  const FatTree ft = build_fat_tree(FatTreeConfig{k, -1, 8});
  const std::vector<NodeId>& gpus = ft.endpoints();
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < 64; ++i) {
    members.push_back(gpus[i * (gpus.size() / 64)]);
  }
  const std::vector<NodeId> dests(members.begin() + 1, members.end());
  const std::vector<PeelStream> parts = peel_static_trees(
      Fabric::of(ft), build_peel_plan(ft, members.front(), dests), 0);
  const StreamSpec spec =
      reduce ? innet_fused_spec(ft.topo, parts, members.front(), members)
             : spec_from_tree(parts.front().tree,
                              parts.front().receivers);

  EventQueue queue;
  std::unique_ptr<DataPlane> plane;
  std::size_t opened = 0;
  for (auto _ : state) {
    // Closed streams keep a small header each; a fresh engine every 4096
    // opens bounds the memory a long run accumulates.
    if (opened++ % 4096 == 0) {
      state.PauseTiming();
      plane.reset();
      if (engine == 0) {
        plane = std::make_unique<Network>(ft.topo, SimConfig{}, queue);
      } else if (engine == 1) {
        plane = std::make_unique<ShardedNetwork>(ft.topo, SimConfig{}, 1);
      } else {
        plane = std::make_unique<FlowNetwork>(ft.topo, SimConfig{}, queue);
      }
      state.ResumeTiming();
    }
    const StreamId s = plane->open_stream(spec);
    benchmark::DoNotOptimize(s);
    plane->close_stream(s);
  }
  static const char* const kEngines[] = {"solo", "sharded", "flow"};
  state.SetLabel(std::string(kEngines[engine]) +
                 (reduce ? ", reduce, " : ", multicast, ") +
                 std::to_string(ft.topo.node_count()) + " nodes");
}
BENCHMARK(BM_OpenStream)->ArgsProduct({{8, 16, 32}, {0, 1}, {0, 1, 2}});

void BM_EngineBuild(benchmark::State& state) {
  // Builds and destroys an idle packet engine over a k-ary fat-tree (8 hosts
  // per ToR, 8 GPUs per host; the topology is built once, untimed): arg 2 =
  // 0 the solo Network on its EventQueue, 1 the sharded engine with one
  // worker, whose k + 1 domains each hold state only for what they own.
  const int k = static_cast<int>(state.range(0));
  const bool sharded = state.range(1) != 0;
  const FatTree ft = build_fat_tree(FatTreeConfig{k, 8, 8});
  const SimConfig config;
  for (auto _ : state) {
    if (sharded) {
      ShardedNetwork net(ft.topo, config, 1);
      benchmark::DoNotOptimize(net.empty());
    } else {
      EventQueue queue;
      Network net(ft.topo, config, queue);
      benchmark::DoNotOptimize(net.pfc_pauses());
    }
  }
  state.SetLabel(std::string(sharded ? "sharded" : "solo") + ", " +
                 std::to_string(ft.topo.node_count()) + " nodes");
}
BENCHMARK(BM_EngineBuild)
    ->ArgsProduct({{8, 16, 32}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_FlowSolve(benchmark::State& state) {
  // One FlowNetwork max-min solve against component size: N PEEL multicast
  // streams (16 random members each, the first packet of each plan) on the
  // k=32 lean fat-tree (one GPU per host, one host per ToR), each sharing a
  // link with an earlier one, so all N form one connected component. N - 1
  // carry a chunk that never finishes; each iteration activates the last
  // stream with one chunk and drains it again (send_chunk, then
  // cancel_unsent_chunks), two solves of the whole component.
  const auto n = static_cast<std::size_t>(state.range(0));
  FatTreeConfig lean;
  lean.k = 32;
  lean.hosts_per_tor = 1;
  lean.gpus_per_host = 1;
  const FatTree ft = build_fat_tree(lean);
  const Fabric fabric = Fabric::of(ft);
  const std::vector<NodeId>& gpus = ft.endpoints();

  Rng rng(20261017);
  std::vector<StreamSpec> specs;
  std::vector<char> used(ft.topo.link_count(), 0);
  while (specs.size() < n) {
    std::vector<NodeId> members = gpus;
    rng.shuffle(members);
    const std::vector<NodeId> dests(members.begin() + 1, members.begin() + 16);
    const std::vector<PeelStream> parts = peel_static_trees(
        fabric, build_peel_plan(ft, members.front(), dests), 0);
    StreamSpec spec = spec_from_tree(parts.front().tree,
                                     parts.front().receivers);
    bool joins = specs.empty();
    for (LinkId l : spec.links) {
      joins = joins || used[static_cast<std::size_t>(l)];
    }
    if (!joins) continue;
    for (LinkId l : spec.links) used[static_cast<std::size_t>(l)] = 1;
    specs.push_back(std::move(spec));
  }

  // Every solve schedules a completion per re-rated flow and nothing runs
  // the queue, so a fresh engine every `cycle` iterations bounds memory.
  const std::size_t cycle = std::max<std::size_t>(16, 65536 / n);
  std::unique_ptr<EventQueue> queue;
  std::unique_ptr<FlowNetwork> net;
  StreamId probe = 0;
  std::size_t done = 0;
  for (auto _ : state) {
    if (done++ % cycle == 0) {
      state.PauseTiming();
      net.reset();
      queue = std::make_unique<EventQueue>();
      net = std::make_unique<FlowNetwork>(ft.topo, SimConfig{}, *queue);
      for (std::size_t i = 0; i < n; ++i) {
        probe = net->open_stream(specs[i]);
        if (i + 1 < n) net->send_chunk(probe, 0, 1LL << 40);
      }
      state.ResumeTiming();
    }
    net->send_chunk(probe, 0, 4 * kMiB);
    benchmark::DoNotOptimize(net->cancel_unsent_chunks(probe));
  }
  state.SetItemsProcessed(2 * state.iterations());
  state.SetLabel("solves; component of " + std::to_string(n) + " streams");
}
BENCHMARK(BM_FlowSolve)->Arg(16)->Arg(128)->Arg(512);

void BM_SourceBacklog(benchmark::State& state) {
  // K streams from one host through host -> ToR (100G) -> host, 4 x 1 MiB
  // chunks each, behind a 1 MiB buffer, without congestion control. With
  // K > 1 the host buffer fills and every pump blocks, so each segment the
  // up-link drains wakes all K injectors: the cost of waking a backlogged
  // source. One iteration runs the whole transfer to drain.
  const int k = static_cast<int>(state.range(0));
  Topology topo;
  const NodeId src = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId tor = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId dst = topo.add_node(Node{NodeKind::Host, 0, 1});
  const LinkId up = topo.add_duplex_link(src, tor, 100_gbps, 100);
  const LinkId down = topo.add_duplex_link(tor, dst, 100_gbps, 100);
  StreamSpec spec;
  spec.source = src;
  spec.links = {up, down};
  spec.receivers = {dst};
  SimConfig config;
  config.congestion_control = false;
  config.switch_buffer_bytes = 1 * kMiB;

  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  for (auto _ : state) {
    EventQueue queue;
    Network net(topo, config, queue);
    for (int i = 0; i < k; ++i) {
      const StreamId s = net.open_stream(spec);
      for (int c = 0; c < 4; ++c) net.send_chunk(s, c, 1 * kMiB);
    }
    queue.run();
    events += queue.processed();
    segments += net.segments_serialized();
    benchmark::DoNotOptimize(segments);
  }
  const auto segs = static_cast<double>(segments);
  state.counters["events_per_segment"] = static_cast<double>(events) / segs;
  // Seconds per serialized segment (kInvert of a rate): "150n" = 150 ns.
  state.counters["time_per_segment"] = benchmark::Counter(
      segs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(k) + " streams");
}
BENCHMARK(BM_SourceBacklog)->Arg(1)->Arg(16)->Arg(64);

void BM_PacketHop(benchmark::State& state) {
  // One stream walks a chain of H equal 100G links (host, H-1 switches,
  // host) without congestion control, so no queue builds: every segment
  // hop is one FinishTx, one Arrive and the enqueue onto the next link,
  // plus the source's one Pump per segment shared by H hops. One iteration
  // opens a stream on a standing Network, sends 16 MiB (256 segments) end
  // to end and closes it.
  const int hops = static_cast<int>(state.range(0));
  Topology topo;
  std::vector<NodeId> chain{topo.add_node(Node{NodeKind::Host, 0, 0})};
  for (int i = 1; i < hops; ++i) {
    chain.push_back(topo.add_node(Node{NodeKind::Tor, 0, i}));
  }
  chain.push_back(topo.add_node(Node{NodeKind::Host, 0, 1}));
  StreamSpec spec;
  spec.source = chain.front();
  for (int i = 0; i < hops; ++i) {
    const auto at = static_cast<std::size_t>(i);
    spec.links.push_back(
        topo.add_duplex_link(chain[at], chain[at + 1], 100_gbps, 100));
  }
  spec.receivers = {chain.back()};
  SimConfig config;
  config.congestion_control = false;
  EventQueue queue;
  Network net(topo, config, queue);

  for (auto _ : state) {
    const StreamId s = net.open_stream(spec);
    net.send_chunk(s, 0, 16 * kMiB);
    queue.run();
    net.close_stream(s);
    benchmark::DoNotOptimize(net.segments_serialized());
  }
  const auto segment_hops = static_cast<double>(net.segments_serialized());
  state.counters["events_per_hop"] =
      static_cast<double>(queue.processed()) / segment_hops;
  // Seconds per segment hop (kInvert of a rate): "60n" = 60 ns.
  state.counters["time_per_hop"] = benchmark::Counter(
      segment_hops, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(hops) + "-link chain");
}
BENCHMARK(BM_PacketHop)->Arg(2)->Arg(8);

void BM_DcqcnCatchUp(benchmark::State& state) {
  // The first rate() query of a DCQCN controller whose clock last moved N
  // alpha_timer periods ago, as when a stream opens long after t = 0 (a
  // controller's clock starts at 0). One iteration times two such queries,
  // each on a copy of a standing controller: a fresh one, and one queried
  // one period after a reaction at 1 s. Default DcqcnParams, 100G line
  // rate, sender guard timer.
  const SimTime periods = state.range(0);
  const DcqcnParams params;
  const Dcqcn fresh(params, 12.5, CnpMode::SenderGuard, 50 * kMicrosecond);
  Dcqcn reacted = fresh;
  reacted.on_cnp(kSecond);
  benchmark::DoNotOptimize(reacted.rate(kSecond + params.alpha_timer));
  const SimTime fresh_query = periods * params.alpha_timer;
  const SimTime reacted_query = kSecond + (1 + periods) * params.alpha_timer;

  for (auto _ : state) {
    Dcqcn a = fresh;
    Dcqcn b = reacted;
    benchmark::DoNotOptimize(a.rate(fresh_query));
    benchmark::DoNotOptimize(b.rate(reacted_query));
  }
  // Seconds per query (kInvert of a rate): "20u" = 20 us.
  state.counters["time_per_query"] = benchmark::Counter(
      2.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DcqcnCatchUp)->Arg(1)->Arg(1000)->Arg(10000);

void BM_ShardedWindows(benchmark::State& state) {
  // The sharded engine's window loop, mailbox drain and merge-time CNP
  // admission: one PEEL Broadcast from a host in pod 0 to every other host
  // of a k=8 fat-tree (9 domains), sent as two stripes over the same tree
  // so the source's up-link congests, with every queued segment marked. Each
  // mark comes back as a CNP from every receiver, mostly from other pods,
  // and the sender guard swallows nearly all of them. Arg = worker threads.
  // One iteration builds the engine (untimed) and runs the broadcast to
  // drain.
  const int workers = static_cast<int>(state.range(0));
  const FatTree ft = build_fat_tree(FatTreeConfig{8, -1, 0});
  const std::vector<NodeId>& hosts = ft.endpoints();
  const std::vector<NodeId> dests(hosts.begin() + 1, hosts.end());
  const std::vector<PeelStream> parts = peel_static_trees(
      Fabric::of(ft), build_peel_plan(ft, hosts.front(), dests), 0);
  StreamSpec spec = spec_from_tree(parts.front().tree,
                                   parts.front().receivers);
  spec.cnp_mode = CnpMode::SenderGuard;
  SimConfig config;
  config.ecn_kmin = 0;
  config.ecn_kmax = 1;

  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto net = std::make_unique<ShardedNetwork>(ft.topo, config, workers);
    for (int stripe = 0; stripe < 2; ++stripe) {
      const StreamId s = net->open_stream(spec);
      for (int c = 0; c < 4; ++c) net->send_chunk(s, c, 256 * kKiB);
    }
    state.ResumeTiming();
    net->run();
    events += net->events_processed();
    windows += net->windows_inline() + net->windows_parallel();
    state.PauseTiming();
    net.reset();  // joins the workers outside the timed region
    state.ResumeTiming();
  }
  const auto ev = static_cast<double>(events);
  state.counters["events_per_window"] = ev / static_cast<double>(windows);
  // Seconds per event (kInvert of a rate): "150n" = 150 ns.
  state.counters["time_per_event"] = benchmark::Counter(
      ev, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(workers) + " worker(s), " +
                 std::to_string(parts.front().receivers.size()) + " receivers");
}
BENCHMARK(BM_ShardedWindows)->Arg(1)->Arg(3)->UseRealTime();

/// DataPlane that records each opened stream's receivers and does nothing
/// else: the runner's side of a collective, with no fabric under it.
struct ReceiverLog final : DataPlane {
  std::function<void(const DeliveryEvent&)> deliver;
  std::vector<std::vector<NodeId>> receivers;  ///< by StreamId

  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    deliver = std::move(handler);
  }
  StreamId open_stream(StreamSpec spec) override {
    receivers.push_back(std::move(spec.receivers));
    return static_cast<StreamId>(receivers.size() - 1);
  }
  void send_chunk(StreamId, int, Bytes) override {}
  std::vector<int> cancel_unsent_chunks(StreamId) override { return {}; }
  void close_stream(StreamId) override {}
  void on_duplex_failed(LinkId) override {}
  void on_duplex_restored(LinkId) override {}
  [[nodiscard]] bool stream_uses_link(StreamId, LinkId) const override {
    return false;
  }
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override {
    return StreamDiagnostic{s};
  }
  [[nodiscard]] Bytes link_bytes(LinkId) const override { return 0; }
};

void BM_CollectiveDelivery(benchmark::State& state) {
  // CollectiveRunner's delivery handler: one iteration submits a PEEL
  // Broadcast from the first of N GPUs spread over a k=16 fat-tree to the
  // rest (8 chunks, the paper's pipelining), then replays every (receiver,
  // chunk) delivery of its streams, chunk by chunk, through the handler the
  // runner installed, until the collective completes. The submit (plan-cache
  // hit, tree build, ledger build) is timed too, so the per-delivery figure
  // carries its share.
  const auto n = static_cast<std::size_t>(state.range(0));
  const FatTree ft = build_fat_tree(FatTreeConfig{16, -1, 8});
  const std::vector<NodeId>& gpus = ft.endpoints();
  std::vector<NodeId> dests;
  for (std::size_t i = 1; i < n; ++i) dests.push_back(gpus[i * (gpus.size() / n)]);
  const RunnerOptions options;
  EventQueue queue;
  ReceiverLog plane;
  CollectiveRunner runner(Fabric::of(ft), plane, queue, Rng(1), options);

  std::uint64_t id = 0;
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    const std::size_t first = plane.receivers.size();
    runner.submit(Scheme::Peel,
                  BroadcastRequest{++id, gpus.front(), dests, 64 * kMiB});
    const std::size_t last = plane.receivers.size();
    for (int c = 0; c < options.chunks; ++c) {
      for (std::size_t s = first; s < last; ++s) {
        for (const NodeId r : plane.receivers[s]) {
          plane.deliver(DeliveryEvent{static_cast<StreamId>(s), id, r, c});
          ++deliveries;
        }
      }
    }
  }
  if (!runner.records().back().finished) state.SkipWithError("unfinished");
  // Seconds per delivery (kInvert of a rate): "50n" = 50 ns.
  state.counters["time_per_delivery"] = benchmark::Counter(
      static_cast<double>(deliveries),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(n) + " GPUs, " +
                 std::to_string(deliveries / state.iterations()) + " deliveries");
}
BENCHMARK(BM_CollectiveDelivery)->Arg(64)->Arg(2048);

/// Forwards every row to the default display reporter with the host-speed
/// calibration, measured once per row, added as the `calibration_s` counter.
class CalibratedReporter : public benchmark::BenchmarkReporter {
 public:
  explicit CalibratedReporter(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    const benchmark::Counter calibration(perfbench::calibration_seconds(1));
    std::vector<Run> rows = runs;
    for (Run& row : rows) row.counters["calibration_s"] = calibration;
    display_->ReportRuns(rows);
  }
  void Finalize() override { display_->Finalize(); }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
};

}  // namespace
}  // namespace peel

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  peel::CalibratedReporter reporter(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
