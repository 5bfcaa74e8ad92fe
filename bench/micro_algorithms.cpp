// Microbenchmarks (google-benchmark): the paper's algorithmic claims are
// about *polynomial-time* tree construction and O(k) state — these measure
// the actual costs so the scaling is visible. The last four isolate
// simulator components: the event scheduler in steady state, a plan-cache
// hit, opening + closing one stream on each data-plane engine, and the flow
// engine's max-min solve against component size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/collectives/plan_cache.h"
#include "src/collectives/trees.h"
#include "src/common/rng.h"
#include "src/prefix/cover.h"
#include "src/prefix/plan.h"
#include "src/prefix/prefix.h"
#include "src/routing/router.h"
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

void BM_PlanCacheHit(benchmark::State& state) {
  // One k=16, 64-GPU PeelPlan key, served from the cache after one miss.
  const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
  const std::vector<NodeId>& gpus = ft.endpoints();
  const NodeId source = gpus.front();
  const std::vector<NodeId> dests(gpus.begin() + 1, gpus.begin() + 64);
  TreePlanCache cache;
  auto lookup = [&] {
    return cache.get_or_build<PeelPlan>(
        PlanKind::PeelPlan, source, dests, PeelCoverOptions{},
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
  // 1 the sharded engine with one worker, 2 the flow engine. The packet
  // engines build node-count-sized tables (fwd_offset, recv_index) per open
  // replica, so their cost tracks the fabric, not the group; the sharded
  // engine opens a replica in every domain the stream touches.
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
             : spec_from_tree(ft.topo, parts.front().tree,
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
// A k=32 sharded engine holds 33 full Network replicas, so it stops at k=16.
BENCHMARK(BM_OpenStream)
    ->ArgsProduct({{8, 16, 32}, {0, 1}, {0, 2}})
    ->ArgsProduct({{8, 16}, {0, 1}, {1}});

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
    StreamSpec spec = spec_from_tree(ft.topo, parts.front().tree,
                                     parts.front().receivers);
    bool joins = specs.empty();
    for (const auto& [node, links] : spec.forward) {
      for (LinkId l : links) joins = joins || used[static_cast<std::size_t>(l)];
    }
    if (!joins) continue;
    for (const auto& [node, links] : spec.forward) {
      for (LinkId l : links) used[static_cast<std::size_t>(l)] = 1;
    }
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

}  // namespace
}  // namespace peel

BENCHMARK_MAIN();
