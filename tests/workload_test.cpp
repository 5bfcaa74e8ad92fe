#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "src/workload/arrivals.h"
#include "src/workload/churn.h"
#include "src/workload/placement.h"

namespace peel {
namespace {

TEST(Placement, GroupHasNoDuplicates) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(1);
  PlacementOptions opts;
  opts.group_size = 64;
  for (int trial = 0; trial < 20; ++trial) {
    const GroupSelection g = select_local_group(fabric, opts, rng);
    std::set<NodeId> all(g.destinations.begin(), g.destinations.end());
    all.insert(g.source);
    EXPECT_EQ(all.size(), 64u);
  }
}

TEST(Placement, WindowIsContiguousInEndpointOrder) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(2);
  PlacementOptions opts;
  opts.group_size = 32;
  for (int trial = 0; trial < 20; ++trial) {
    const GroupSelection g = select_local_group(fabric, opts, rng);
    std::set<NodeId> members(g.destinations.begin(), g.destinations.end());
    members.insert(g.source);
    // Map members back to endpoint indices; they must form a contiguous run.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ft.gpus.size(); ++i) {
      if (members.contains(ft.gpus[i])) idx.push_back(i);
    }
    ASSERT_EQ(idx.size(), 32u);
    EXPECT_EQ(idx.back() - idx.front(), 31u);
    // Host alignment: the window starts on an 8-GPU boundary.
    EXPECT_EQ(idx.front() % 8, 0u);
  }
}

TEST(Placement, SourceIsAMember) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(3);
  PlacementOptions opts;
  opts.group_size = 8;
  const GroupSelection g = select_local_group(fabric, opts, rng);
  EXPECT_EQ(g.destinations.size(), 7u);
  for (NodeId d : g.destinations) EXPECT_NE(d, g.source);
}

TEST(Placement, FragmentationDisplacesMembers) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(4);
  PlacementOptions opts;
  opts.group_size = 32;
  opts.fragmentation = 0.25;
  int displaced_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const GroupSelection g = select_local_group(fabric, opts, rng);
    std::set<NodeId> members(g.destinations.begin(), g.destinations.end());
    members.insert(g.source);
    EXPECT_EQ(members.size(), 32u);  // size preserved, no duplicates
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ft.gpus.size(); ++i) {
      if (members.contains(ft.gpus[i])) idx.push_back(i);
    }
    displaced_total += static_cast<int>(idx.back() - idx.front()) > 31 ? 1 : 0;
  }
  EXPECT_GT(displaced_total, 5);  // fragmentation usually widens the span
}

TEST(Placement, GroupOfWholeFabric) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 1, 2});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(5);
  PlacementOptions opts;
  opts.group_size = static_cast<int>(ft.gpus.size());
  const GroupSelection g = select_local_group(fabric, opts, rng);
  EXPECT_EQ(g.destinations.size(), ft.gpus.size() - 1);
}

TEST(Placement, RejectsBadSizes) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 1, 1});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(6);
  PlacementOptions opts;
  opts.group_size = 1;
  EXPECT_THROW(select_local_group(fabric, opts, rng), std::invalid_argument);
  opts.group_size = static_cast<int>(ft.gpus.size()) + 1;
  EXPECT_THROW(select_local_group(fabric, opts, rng), std::invalid_argument);
}

// Regression for the fragmentation-displacement loop: the displaced-member
// swap maintains the in_group set atomically, so no fragmentation level, at
// any alignment, may ever produce a duplicate NodeId in the selection (a
// duplicate would double-count deliveries and break the byte audit).
TEST(Placement, FragmentationFuzzNeverDuplicates) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(0xf0a2);
  for (const double frag : {0.0, 0.25, 0.5, 1.0}) {
    for (const bool buddy : {false, true}) {
      for (const int size : {2, 8, 17, 64, 256}) {
        for (int trial = 0; trial < 50; ++trial) {
          PlacementOptions opts;
          opts.group_size = size;
          opts.fragmentation = frag;
          opts.buddy_aligned = buddy;
          const GroupSelection g = select_local_group(fabric, opts, rng);
          ASSERT_EQ(g.destinations.size(),
                    static_cast<std::size_t>(size) - 1)
              << "frag=" << frag << " buddy=" << buddy << " size=" << size;
          std::set<NodeId> all(g.destinations.begin(), g.destinations.end());
          ASSERT_EQ(all.size(), g.destinations.size())
              << "duplicate destination at frag=" << frag << " size=" << size;
          ASSERT_FALSE(all.contains(g.source))
              << "source duplicated into destinations at frag=" << frag;
        }
      }
    }
  }
}

TEST(OfferedLoad, ScalesWithLoadAndMessage) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const double r1 = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64);
  const double r2 = arrival_rate_for_load(fabric, 0.60, 8 * kMiB, 64);
  const double r3 = arrival_rate_for_load(fabric, 0.30, 16 * kMiB, 64);
  EXPECT_NEAR(r2 / r1, 2.0, 1e-9);
  EXPECT_NEAR(r1 / r3, 2.0, 1e-9);
}

TEST(OfferedLoad, MatchesHandComputation) {
  // 128 hosts x 100 Gbps = 1.6e12 B/s capacity. A 64-GPU group = 8 hosts;
  // 8 MiB x 8 = 67.1 MB per collective. At load 0.3:
  // rate = 0.3 * 1.6e12 / 6.71e7 = 7152.6/s.
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const double rate = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64);
  EXPECT_NEAR(rate, 0.3 * (128 * 12.5e9) / (8.0 * 8 * kMiB), 1e-6);
}

TEST(OfferedLoad, RejectsBadArguments) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 1, 1});
  const Fabric fabric = Fabric::of(ft);
  EXPECT_THROW((void)arrival_rate_for_load(fabric, 0.0, kMiB, 4),
               std::invalid_argument);
  EXPECT_THROW((void)arrival_rate_for_load(fabric, 0.3, 0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)arrival_rate_for_load(fabric, 0.3, kMiB, 1),
               std::invalid_argument);
  EXPECT_THROW((void)arrival_rate_for_load(fabric, 0.3, kMiB, 4, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)arrival_rate_for_load(fabric, 0.3, kMiB, 4, 1.5),
               std::invalid_argument);
}

// Pins the fragmentation-aware rate (the satellite fix): displaced members
// land on hosts of their own, so the same group crosses more access links
// and a load-equivalent rate must drop accordingly.
TEST(OfferedLoad, FragmentationAwareRateMatchesHandComputation) {
  // 128 hosts x 100 Gbps = 1.6e12 B/s. 64-GPU group at frag 0.25:
  // displaced = int(0.25 * 64) = 16, packed = 48 -> ceil(48/8) + 16 = 22
  // hosts; 8 MiB x 22 per collective at load 0.3.
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  const double rate = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64, 0.25);
  EXPECT_NEAR(rate, 0.3 * (128 * 12.5e9) / (8.0 * 22 * kMiB), 1e-6);
  // frag = 0 preserves the historical contiguous accounting exactly.
  EXPECT_DOUBLE_EQ(arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64, 0.0),
                   arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64));
  // Fully fragmented: every member on its own host, capped at the host count.
  const double full = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64, 1.0);
  EXPECT_NEAR(full, 0.3 * (128 * 12.5e9) / (8.0 * 64 * kMiB), 1e-6);
  // The rate is monotonically non-increasing in fragmentation.
  double prev = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64, 0.0);
  for (const double f : {0.25, 0.5, 0.75, 1.0}) {
    const double r = arrival_rate_for_load(fabric, 0.30, 8 * kMiB, 64, f);
    EXPECT_LE(r, prev + 1e-12) << "frag=" << f;
    prev = r;
  }
}

TEST(Arrivals, PoissonScheduleIsDeterministicAndSorted) {
  ArrivalOptions opts;
  opts.jobs = 200;
  opts.rate_per_second = 5000.0;
  opts.group_sizes = {8, 16};
  opts.fragmented_share = 0.3;
  opts.buddy_share = 0.3;
  Rng a(42), b(42);
  const std::vector<JobSpec> ja = generate_arrivals(opts, a);
  const std::vector<JobSpec> jb = generate_arrivals(opts, b);
  ASSERT_EQ(ja.size(), 200u);
  ASSERT_EQ(jb.size(), 200u);
  int frag = 0, buddy = 0, packed = 0;
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].arrival, jb[i].arrival);
    EXPECT_EQ(ja[i].policy, jb[i].policy);
    EXPECT_EQ(ja[i].group_size, jb[i].group_size);
    EXPECT_EQ(ja[i].job, i + 1);
    if (i > 0) {
      EXPECT_GE(ja[i].arrival, ja[i - 1].arrival);
    }
    EXPECT_TRUE(ja[i].group_size == 8 || ja[i].group_size == 16);
    switch (ja[i].policy) {
      case PlacementPolicy::Fragmented: ++frag; break;
      case PlacementPolicy::BuddyAligned: ++buddy; break;
      case PlacementPolicy::BinPacked: ++packed; break;
    }
  }
  // Every policy appears under a 30/30/40 mix across 200 draws.
  EXPECT_GT(frag, 20);
  EXPECT_GT(buddy, 20);
  EXPECT_GT(packed, 20);
}

TEST(Arrivals, TraceDrivenArrivalsAreSortedAndExact) {
  ArrivalOptions opts;
  opts.trace_seconds = {3e-3, 1e-3, 2e-3};
  Rng rng(7);
  const std::vector<JobSpec> jobs = generate_arrivals(opts, rng);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].arrival, seconds_to_sim(1e-3));
  EXPECT_EQ(jobs[1].arrival, seconds_to_sim(2e-3));
  EXPECT_EQ(jobs[2].arrival, seconds_to_sim(3e-3));
}

TEST(Arrivals, RejectsBadOptions) {
  Rng rng(1);
  ArrivalOptions opts;  // rate unset, no trace
  EXPECT_THROW(generate_arrivals(opts, rng), std::invalid_argument);
  opts.rate_per_second = 100.0;
  opts.group_sizes.clear();
  EXPECT_THROW(generate_arrivals(opts, rng), std::invalid_argument);
  opts.group_sizes = {8};
  opts.fragmented_share = 0.8;
  opts.buddy_share = 0.4;  // shares sum past 1
  EXPECT_THROW(generate_arrivals(opts, rng), std::invalid_argument);
}

// A negative gap or hold would schedule a job's next step into the past deep
// inside run_workload; it is rejected here, naming the field.
TEST(Arrivals, RejectsANegativeOrNaNGapOrHold) {
  Rng rng(1);
  ArrivalOptions opts;
  opts.rate_per_second = 100.0;
  const auto message = [&] {
    try {
      (void)generate_arrivals(opts, rng);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  for (const double bad : {-5e-4, std::nan(""), HUGE_VAL}) {
    opts.iteration_gap_seconds = bad;
    EXPECT_NE(message().find("iteration_gap_seconds"), std::string::npos);
    opts.iteration_gap_seconds = 0.0;
    opts.hold_seconds = bad;
    EXPECT_NE(message().find("hold_seconds"), std::string::npos);
    opts.hold_seconds = 0.0;
  }
  EXPECT_EQ(message(), "no throw");
}

// A non-finite or out-of-range trace time, rate or policy share has no
// meaning; each is rejected naming its field instead of placing a job at
// INT64_MIN ns, drawing a NaN gap, or bin-packing every job.
TEST(Arrivals, RejectsNonFiniteTraceRateAndShares) {
  Rng rng(1);
  const auto message = [&](const ArrivalOptions& opts) {
    try {
      (void)generate_arrivals(opts, rng);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  for (const double bad : {std::nan(""), HUGE_VAL, 2e9}) {
    ArrivalOptions opts;
    opts.trace_seconds = {1e-3, bad};
    EXPECT_NE(message(opts).find("trace_seconds"), std::string::npos) << bad;
  }
  for (const double bad : {std::nan(""), HUGE_VAL, 1e-12}) {
    ArrivalOptions opts;
    opts.rate_per_second = bad;
    EXPECT_NE(message(opts).find("rate_per_second"), std::string::npos) << bad;
  }
  for (const double bad : {std::nan(""), -HUGE_VAL}) {
    ArrivalOptions opts;
    opts.rate_per_second = 100.0;
    opts.fragmented_share = bad;
    EXPECT_NE(message(opts).find("fragmented_share"), std::string::npos) << bad;
    opts.fragmented_share = 0.0;
    opts.buddy_share = bad;
    EXPECT_NE(message(opts).find("buddy_share"), std::string::npos) << bad;
  }
  ArrivalOptions ok;
  ok.trace_seconds = {0.0, 1e9};
  EXPECT_EQ(message(ok), "no throw");
}

TEST(Churn, ReplacesMembersWithoutDuplicatesOrTheSource) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  Rng placer(11), churner(12);
  PlacementOptions opts;
  opts.group_size = 32;
  GroupSelection g = select_local_group(fabric, opts, placer);
  for (int event = 0; event < 40; ++event) {
    const std::vector<NodeId> before = g.destinations;
    const int replaced =
        churn_group(fabric, g.destinations, g.source, 0.25, churner);
    EXPECT_EQ(replaced, 8);  // ceil(0.25 * 31) = 8
    ASSERT_EQ(g.destinations.size(), before.size());
    std::set<NodeId> all(g.destinations.begin(), g.destinations.end());
    ASSERT_EQ(all.size(), g.destinations.size()) << "duplicate after churn";
    ASSERT_FALSE(all.contains(g.source));
    int changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (before[i] != g.destinations[i]) ++changed;
    }
    EXPECT_GE(changed, 1);
  }
}

TEST(Churn, FullFabricGroupCannotChurn) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 1, 2});
  const Fabric fabric = Fabric::of(ft);
  std::vector<NodeId> members(ft.gpus.begin() + 1, ft.gpus.end());
  Rng rng(3);
  EXPECT_EQ(churn_group(fabric, members, ft.gpus.front(), 0.5, rng), 0);
}

}  // namespace
}  // namespace peel
