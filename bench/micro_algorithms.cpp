// Microbenchmarks (google-benchmark): the paper's algorithmic claims are
// about *polynomial-time* tree construction and O(k) state — these measure
// the actual costs so the scaling is visible. The last two isolate simulator
// components: the event scheduler in steady state and a plan-cache hit.
#include <benchmark/benchmark.h>

#include "src/collectives/plan_cache.h"
#include "src/prefix/cover.h"
#include "src/prefix/plan.h"
#include "src/prefix/prefix.h"
#include "src/routing/router.h"
#include "src/sim/event_queue.h"
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

}  // namespace
}  // namespace peel

BENCHMARK_MAIN();
