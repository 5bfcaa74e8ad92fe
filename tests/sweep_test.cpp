// Sweep engine invariants: grid materialization, per-cell seed derivation,
// and — the load-bearing property — results that are identical cell-for-cell
// no matter how many worker threads execute the grid.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "src/harness/sweep.h"

namespace peel {
namespace {

ScenarioConfig tiny_base() {
  ScenarioConfig c;
  c.group_size = 8;
  c.message_bytes = 1 * kMiB;
  c.collectives = 3;
  c.seed = 99;
  return c;
}

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.base = tiny_base();
  spec.schemes = {Scheme::Ring, Scheme::Peel};
  spec.message_sizes = {1 * kMiB, 2 * kMiB};
  spec.replicas = 2;
  spec.master_seed = 7;
  return spec;
}

struct SweepFixture : ::testing::Test {
  FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});  // 64 GPUs
  Fabric fabric = Fabric::of(ft);

  // The env override would defeat the point of comparing thread counts.
  SweepFixture() { unsetenv("PEEL_BENCH_THREADS"); }
};

TEST(CellSeed, DeterministicAndCoordinateSensitive) {
  SweepPoint p;
  p.scheme_index = 1;
  p.group_index = 2;
  p.message_index = 3;
  p.load_index = 4;
  p.replica = 5;
  const std::uint64_t seed = derive_cell_seed(42, p);
  EXPECT_EQ(seed, derive_cell_seed(42, p));  // pure function of coordinates

  // Changing any single coordinate, the replica, or the master seed moves
  // the cell to a different stream.
  std::set<std::uint64_t> seen{seed};
  for (std::size_t* coord : {&p.scheme_index, &p.group_index, &p.message_index,
                             &p.load_index}) {
    ++*coord;
    EXPECT_TRUE(seen.insert(derive_cell_seed(42, p)).second);
    --*coord;
  }
  ++p.replica;
  EXPECT_TRUE(seen.insert(derive_cell_seed(42, p)).second);
  --p.replica;
  EXPECT_TRUE(seen.insert(derive_cell_seed(43, p)).second);

  // flat_index is derived bookkeeping, not a coordinate: it must not feed
  // the seed (two benches enumerating the same grid differently agree).
  p.flat_index = 1234;
  EXPECT_EQ(seed, derive_cell_seed(42, p));
}

TEST(CellSeed, DistinctAcrossAWholeGrid) {
  SweepSpec spec = tiny_spec();
  spec.group_sizes = {8, 16};
  spec.loads = {0.1, 0.3};
  const std::vector<SweepCell> cells = materialize_cells(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u * 2u);
  std::set<std::uint64_t> seeds;
  for (const SweepCell& c : cells) seeds.insert(c.config.seed);
  EXPECT_EQ(seeds.size(), cells.size());
}

TEST(Materialize, GridOrderAxesAndHooks) {
  SweepSpec spec = tiny_spec();
  int hook_calls = 0;
  spec.customize = [&hook_calls](const SweepPoint& p, ScenarioConfig& c) {
    ++hook_calls;
    c.collectives = 2 + static_cast<int>(p.message_index);
  };
  const std::vector<SweepCell> cells = materialize_cells(spec);
  ASSERT_EQ(cells.size(), 8u);  // 2 schemes x 2 messages x 2 replicas
  EXPECT_EQ(hook_calls, 8);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].point.flat_index, i);
  }
  // Row-major: schemes outermost, replicas innermost.
  EXPECT_EQ(cells[0].config.scheme, Scheme::Ring);
  EXPECT_EQ(cells[0].point.replica, 0);
  EXPECT_EQ(cells[1].point.replica, 1);
  EXPECT_EQ(cells[2].point.message_index, 1u);
  EXPECT_EQ(cells[2].config.message_bytes, 2 * kMiB);
  EXPECT_EQ(cells[2].config.collectives, 3);  // hook saw message_index == 1
  EXPECT_EQ(cells[4].config.scheme, Scheme::Peel);
  // Unset axes collapse to the base value.
  EXPECT_EQ(cells[0].config.group_size, spec.base.group_size);
  EXPECT_EQ(cells[0].config.offered_load, spec.base.offered_load);
}

TEST(Materialize, WithoutMasterSeedEveryCellKeepsBaseSeed) {
  SweepSpec spec = tiny_spec();
  spec.master_seed.reset();
  for (const SweepCell& c : materialize_cells(spec)) {
    EXPECT_EQ(c.config.seed, spec.base.seed);
  }
}

TEST(ResolveThreads, ClampsAndHonorsEnv) {
  unsetenv("PEEL_BENCH_THREADS");
  EXPECT_EQ(resolve_sweep_threads(3, 100), 3);
  EXPECT_EQ(resolve_sweep_threads(8, 2), 2);   // never more threads than cells
  EXPECT_GE(resolve_sweep_threads(0, 100), 1);  // auto is at least one
  setenv("PEEL_BENCH_THREADS", "5", 1);
  EXPECT_EQ(resolve_sweep_threads(1, 100), 5);  // env wins over the request
  EXPECT_EQ(resolve_sweep_threads(1, 2), 2);
  setenv("PEEL_BENCH_THREADS", "0", 1);
  EXPECT_EQ(resolve_sweep_threads(3, 100), 3);  // 0 keeps the request
  unsetenv("PEEL_BENCH_THREADS");
}

TEST(ResolveThreads, MalformedEnvValueThrows) {
  for (const char* bad : {"banana", "4x", "2.5", "-1", "99999999999"}) {
    setenv("PEEL_BENCH_THREADS", bad, 1);
    EXPECT_THROW((void)resolve_sweep_threads(1, 100), std::invalid_argument)
        << bad;
  }
  unsetenv("PEEL_BENCH_THREADS");
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.cct_seconds.count(), b.cct_seconds.count());
  EXPECT_EQ(a.cct_seconds.values(), b.cct_seconds.values());
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.core_bytes, b.core_bytes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ecn_marks, b.ecn_marks);
  EXPECT_EQ(a.pfc_pauses, b.pfc_pauses);
  EXPECT_EQ(a.unfinished, b.unfinished);
}

TEST_F(SweepFixture, OneThreadAndManyThreadsAgreeCellForCell) {
  const SweepSpec spec = tiny_spec();

  SweepOptions serial;
  serial.threads = 1;
  const SweepResults a = run_sweep(fabric, spec, serial);

  SweepOptions parallel;
  parallel.threads = 4;
  const SweepResults b = run_sweep(fabric, spec, parallel);

  ASSERT_EQ(a.size(), spec.cell_count());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.cells()[i].config.seed, b.cells()[i].config.seed);
    EXPECT_EQ(a.cells()[i].point.flat_index, i);
    expect_identical(a.cells()[i].result, b.cells()[i].result);
  }
}

TEST_F(SweepFixture, CellsMatchDirectRunScenario) {
  const SweepSpec spec = tiny_spec();
  const SweepResults swept = run_sweep(fabric, spec);
  for (const SweepCell& c : swept.cells()) {
    expect_identical(c.result, run_scenario(fabric, c.config));
  }
}

TEST_F(SweepFixture, CoordinateAccessMatchesGridOrder) {
  const SweepSpec spec = tiny_spec();
  const SweepResults r = run_sweep(fabric, spec);
  std::size_t flat = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t m = 0; m < 2; ++m) {
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(r.at(s, 0, m, 0, rep).point.flat_index, flat);
        ++flat;
      }
    }
  }
  EXPECT_THROW((void)r.at(2, 0, 0, 0, 0), std::out_of_range);
  EXPECT_THROW((void)r.at(0, 1, 0, 0, 0), std::out_of_range);
  EXPECT_THROW((void)r.at(0, 0, 0, 0, 5), std::out_of_range);
}

TEST_F(SweepFixture, ReplicasWithMasterSeedDiffer) {
  const SweepSpec spec = tiny_spec();
  const SweepResults r = run_sweep(fabric, spec);
  const ScenarioResult& rep0 = r.at(0, 0, 0, 0, 0).result;
  const ScenarioResult& rep1 = r.at(0, 0, 0, 0, 1).result;
  EXPECT_NE(rep0.cct_seconds.values(), rep1.cct_seconds.values());
}

TEST_F(SweepFixture, UnifiedRunScenarioCoversEveryCollectiveKind) {
  for (CollectiveKind kind : {CollectiveKind::Broadcast,
                              CollectiveKind::AllGather,
                              CollectiveKind::AllReduce}) {
    ScenarioConfig c = tiny_base();
    c.collective = kind;
    const ScenarioResult r = run_scenario(fabric, c);
    EXPECT_EQ(r.unfinished, 0u) << to_string(kind);
    EXPECT_EQ(r.cct_seconds.count(), 3u) << to_string(kind);
  }
}

}  // namespace
}  // namespace peel
