// Property-based sweeps (parameterized gtest) over the paper's invariants:
// Lemma 2.3's size bound, Theorem 2.5's approximation factor, cover-set
// exactness, plan partitioning, and simulator byte conservation.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <set>

#include "src/harness/experiment.h"
#include "src/prefix/cover.h"
#include "src/prefix/plan.h"
#include "src/steiner/exact.h"
#include "src/steiner/layer_peel.h"
#include "src/baselines/bandwidth.h"
#include "src/prefix/prefix.h"
#include "src/routing/router.h"
#include "src/sim/dcqcn.h"
#include "src/sim/flow_network.h"
#include "src/sim/stream_tree.h"
#include "src/steiner/symmetric.h"
#include "src/topology/failures.h"

namespace peel {
namespace {

// --- Layer peeling under random failures ------------------------------------

struct PeelParams {
  std::uint64_t seed;
  double failure_fraction;
  int group;
};

class LayerPeelProperty : public ::testing::TestWithParam<PeelParams> {};

TEST_P(LayerPeelProperty, TreeValidAndWithinBounds) {
  const auto [seed, failure_fraction, group] = GetParam();
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{8, 16, 2, 0});
  Rng rng(seed);
  if (failure_fraction > 0) {
    fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo),
                         failure_fraction, rng);
  }
  std::vector<NodeId> pool = ls.hosts;
  rng.shuffle(pool);
  const NodeId source = pool[0];
  std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + group);
  if (!all_reachable(ls.topo, source, dests)) GTEST_SKIP();

  const MulticastTree tree = layer_peel_tree(ls.topo, source, dests);
  ASSERT_TRUE(tree.validate(ls.topo).ok) << tree.validate(ls.topo).error;

  // Lemma 2.3: |T| (tree switches) <= |D| * F.
  const int f = farthest_destination_distance(ls.topo, source, dests);
  EXPECT_LE(tree.switch_count(ls.topo),
            dests.size() * static_cast<std::size_t>(f));

  // Any tree must at least touch each destination and each distinct leaf.
  std::set<NodeId> leaves;
  for (NodeId d : dests) leaves.insert(ls.topo.tor_of(d));
  EXPECT_GE(tree.link_count(), dests.size() + leaves.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    FailureSweep, LayerPeelProperty,
    ::testing::Values(PeelParams{1, 0.0, 8}, PeelParams{2, 0.01, 8},
                      PeelParams{3, 0.02, 12}, PeelParams{4, 0.04, 12},
                      PeelParams{5, 0.08, 16}, PeelParams{6, 0.10, 16},
                      PeelParams{7, 0.10, 24}, PeelParams{8, 0.15, 8},
                      PeelParams{9, 0.20, 8}, PeelParams{10, 0.25, 12}));

// --- Theorem 2.5: greedy within min(F, |D|) of the exact optimum ------------

class ApproximationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproximationProperty, GreedyWithinFactor) {
  const std::uint64_t seed = GetParam();
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 0});
  Rng rng(seed);
  fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.2, rng);
  std::vector<NodeId> pool = ls.hosts;
  rng.shuffle(pool);
  const NodeId source = pool[0];
  std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 6);
  if (!all_reachable(ls.topo, source, dests)) GTEST_SKIP();

  const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
  ASSERT_TRUE(greedy.validate(ls.topo).ok);
  const int exact = exact_steiner_cost(ls.topo, source, dests);
  const int f = farthest_destination_distance(ls.topo, source, dests);
  const int factor = std::min<int>(f, static_cast<int>(dests.size()));
  EXPECT_GE(static_cast<int>(greedy.link_count()), exact);
  EXPECT_LE(static_cast<int>(greedy.link_count()), exact * factor);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationProperty,
                         ::testing::Range<std::uint64_t>(100, 130));

// --- Greedy equals the optimum on symmetric fabrics --------------------------

class SymmetricGreedyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymmetricGreedyProperty, GreedyMatchesClosedFormOptimum) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  Rng rng(GetParam());
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  const std::size_t n = 2 + rng.next_below(14);
  const NodeId source = pool[0];
  std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + n);

  const MulticastTree greedy = layer_peel_tree(ft.topo, source, dests);
  ASSERT_TRUE(greedy.validate(ft.topo).ok);
  EXPECT_EQ(greedy.link_count(), symmetric_optimal_link_count(ft, source, dests));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetricGreedyProperty,
                         ::testing::Range<std::uint64_t>(200, 220));

// --- Cover sets ---------------------------------------------------------------

class CoverProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoverProperty, ExactCoverExactAndAligned) {
  const int m = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 31 + 7);
  const auto size = std::size_t{1} << m;
  for (int trial = 0; trial < 50; ++trial) {
    MemberSet members(size, 0);
    for (auto& b : members) b = rng.next_below(3) == 0;
    const auto cover = exact_cover(members, m);
    MemberSet covered(size, 0);
    for (const auto& p : cover) {
      // Power-of-two alignment.
      EXPECT_EQ(p.block_start(m) % p.block_size(m), 0u);
      for (std::uint32_t id = p.block_start(m);
           id < p.block_start(m) + p.block_size(m); ++id) {
        EXPECT_FALSE(covered[id]);
        covered[id] = 1;
      }
    }
    EXPECT_EQ(covered, members);
  }
}

TEST_P(CoverProperty, BoundedCoverMonotoneInBudget) {
  const int m = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 17 + 3);
  const auto size = std::size_t{1} << m;
  for (int trial = 0; trial < 20; ++trial) {
    MemberSet members(size, 0);
    for (auto& b : members) b = rng.next_below(2) == 0;
    if (member_count(members) == 0) continue;
    int prev_waste = std::numeric_limits<int>::max();
    for (int budget = 1; budget <= 5; ++budget) {
      const auto bc = bounded_cover(members, m, budget);
      EXPECT_LE(static_cast<int>(bc.prefixes.size()), budget);
      EXPECT_LE(bc.redundant, prev_waste);
      prev_waste = bc.redundant;
      // All members covered.
      for (std::size_t id = 0; id < size; ++id) {
        if (!members[id]) continue;
        const bool covered = std::any_of(
            bc.prefixes.begin(), bc.prefixes.end(), [&](const Prefix& p) {
              return p.matches(static_cast<std::uint32_t>(id), m);
            });
        EXPECT_TRUE(covered);
      }
      // Redundancy accounting is consistent.
      int over = 0;
      for (std::size_t id = 0; id < size; ++id) {
        if (members[id]) continue;
        for (const auto& p : bc.prefixes) {
          if (p.matches(static_cast<std::uint32_t>(id), m)) {
            ++over;
            break;
          }
        }
      }
      EXPECT_EQ(over, bc.redundant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IdBits, CoverProperty, ::testing::Values(2, 3, 4, 5, 6));

// --- PEEL plans partition the group ------------------------------------------

class PlanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanProperty, PacketsPartitionAndStateIsBounded) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  Rng rng(GetParam());
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  const std::size_t n = 4 + rng.next_below(60);
  const NodeId source = pool[0];
  std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + n);

  const PeelPlan plan = build_peel_plan(ft, source, dests);
  // Exact covers over-cover nothing — except the source's own rack, which is
  // a free don't-care (it sits on the packet's up-path).
  const NodeId src_tor = ft.topo.tor_of(ft.topo.host_of(source));
  for (const auto& packet : plan.packets) {
    for (NodeId tor : packet.redundant_tors) EXPECT_EQ(tor, src_tor);
  }
  EXPECT_LE(plan.header_bits(), 64);

  // Realize the plan as streams and confirm the receivers partition dests.
  const Fabric fabric = Fabric::of(ft);
  const auto streams = peel_static_trees(fabric, plan, GetParam());
  std::multiset<NodeId> covered;
  for (const auto& s : streams) {
    EXPECT_TRUE(s.tree.validate(ft.topo).ok);
    covered.insert(s.receivers.begin(), s.receivers.end());
  }
  EXPECT_EQ(covered, std::multiset<NodeId>(dests.begin(), dests.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperty,
                         ::testing::Range<std::uint64_t>(300, 325));

// --- Fat-tree shape across degrees ---------------------------------------------

class FatTreeShapeProperty : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeShapeProperty, CanonicalInvariants) {
  const int k = GetParam();
  const FatTree ft = build_fat_tree(FatTreeConfig{k, -1, 0});
  const int half = k / 2;
  EXPECT_EQ(ft.cores.size(), static_cast<std::size_t>(half * half));
  EXPECT_EQ(ft.aggs.size(), static_cast<std::size_t>(k * half));
  EXPECT_EQ(ft.tors.size(), static_cast<std::size_t>(k * half));
  EXPECT_EQ(ft.hosts.size(), static_cast<std::size_t>(k * half * half));
  // Degree checks: every core has k live neighbors (one agg per pod), every
  // agg k (half cores + half tors), every ToR k (half aggs + half hosts).
  for (NodeId core : ft.cores) {
    EXPECT_EQ(ft.topo.live_neighbors(core).size(), static_cast<std::size_t>(k));
  }
  for (NodeId agg : ft.aggs) {
    EXPECT_EQ(ft.topo.live_neighbors(agg).size(), static_cast<std::size_t>(k));
  }
  for (NodeId tor : ft.tors) {
    EXPECT_EQ(ft.topo.live_neighbors(tor).size(), static_cast<std::size_t>(k));
  }
  // Any two hosts in different pods are exactly 6 hops apart.
  Router router(ft.topo);
  const Route r = router.path(ft.hosts.front(), ft.hosts.back(), 1);
  EXPECT_EQ(r.hops(), 6u);
}

TEST_P(FatTreeShapeProperty, PrefixStateMatchesHeadlineFormula) {
  const int k = GetParam();
  const int m = id_bits(k / 2);
  EXPECT_EQ(rule_count(m), static_cast<std::size_t>(k - 1));
  const PrefixRuleTable table(m, k / 2);
  EXPECT_EQ(table.size(), static_cast<std::size_t>(k - 1));
  // Every live port is selected by exactly m+1 rules (one per prefix length).
  std::vector<int> selected(static_cast<std::size_t>(k / 2), 0);
  for (int len = 0; len <= m; ++len) {
    for (std::uint32_t v = 0; v < (1u << len); ++v) {
      for (int port : table.match(Prefix{v, len})) {
        ++selected[static_cast<std::size_t>(port)];
      }
    }
  }
  for (int count : selected) EXPECT_EQ(count, m + 1);
}

INSTANTIATE_TEST_SUITE_P(Degrees, FatTreeShapeProperty,
                         ::testing::Values(4, 8, 16, 32));

// --- DCQCN parameter sweeps -----------------------------------------------------

struct DcqcnSweep {
  double g;
  int fast_recovery_stages;
  double additive;
};

class DcqcnProperty : public ::testing::TestWithParam<DcqcnSweep> {};

TEST_P(DcqcnProperty, RateStaysInBoundsAndRecovers) {
  const auto [g, stages, additive] = GetParam();
  DcqcnParams p;
  p.g = g;
  p.fast_recovery_stages = stages;
  p.additive_increase_fraction = additive;
  const double line = 12.5;
  Dcqcn cc(p, line, CnpMode::Unthrottled, 0);

  Rng rng(99);
  SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += static_cast<SimTime>(rng.next_below(200'000));  // 0..200 us gaps
    if (rng.next_below(3) == 0) cc.on_cnp(now);
    const double rate = cc.rate(now);
    ASSERT_GE(rate, p.min_rate_fraction * line - 1e-9);
    ASSERT_LE(rate, line + 1e-9);
  }
  // A long quiet period always brings the rate back to (near) line rate.
  const double recovered = cc.rate(now + 3000 * p.increase_timer);
  EXPECT_NEAR(recovered, line, line * 0.05);
}

// The single-queue engine posts every CNP through admit_cnp and schedules
// only the admitted ones. That is exact only if a controller that never sees
// the swallowed CNPs is indistinguishable from one that sees them all: same
// rate() bits at every query, same reactions, and admit_cnp keeping exactly
// the CNPs on which on_cnp returns true. Random posting sequences (bursts at
// one instant included, as when many receivers signal at once), a fixed CNP
// delay, rate queries in between, and guard intervals from 0 to 4x alpha's
// timer.
TEST_P(DcqcnProperty, GuardPredictionMatchesDeliveringEveryCnp) {
  const auto [g, stages, additive] = GetParam();
  DcqcnParams p;
  p.g = g;
  p.fast_recovery_stages = stages;
  p.additive_increase_fraction = additive;
  const double line = 12.5;
  const SimTime delay = 5 * kMicrosecond;

  for (const CnpMode mode : {CnpMode::SenderGuard, CnpMode::ReceiverTimer,
                             CnpMode::Unthrottled}) {
    for (const SimTime guard : {SimTime{0}, 1 * kMicrosecond,
                                50 * kMicrosecond, 4 * p.alpha_timer}) {
      Dcqcn every(p, line, mode, guard);  // on_cnp for every CNP
      Dcqcn twin(p, line, mode, guard);   // on_cnp only for admitted ones
      Rng rng(7 + static_cast<std::uint64_t>(guard));
      std::deque<std::pair<SimTime, bool>> in_flight;  // arrival, admitted
      std::uint64_t kept = 0;
      const auto deliver_until = [&](SimTime horizon) {
        while (!in_flight.empty() && in_flight.front().first <= horizon) {
          const auto [arrival, admitted] = in_flight.front();
          in_flight.pop_front();
          ASSERT_EQ(every.on_cnp(arrival), admitted) << "at " << arrival;
          if (admitted) {
            ASSERT_TRUE(twin.on_cnp(arrival));
          }
          ASSERT_EQ(every.rate(arrival), twin.rate(arrival));
        }
      };

      SimTime now = 0;
      for (int i = 0; i < 3000; ++i) {
        if (rng.next_below(4) != 0) {
          now += static_cast<SimTime>(rng.next_below(30'000));
        }
        deliver_until(now);
        if (rng.next_below(3) != 0) {
          const bool admitted = twin.admit_cnp(now + delay);
          kept += admitted ? 1 : 0;
          in_flight.emplace_back(now + delay, admitted);
        }
        if (rng.next_below(2) == 0) {
          ASSERT_EQ(every.rate(now), twin.rate(now));
        }
      }
      deliver_until(now + delay);

      EXPECT_EQ(twin.reactions(), every.reactions());
      EXPECT_EQ(twin.reactions(), kept);
      EXPECT_EQ(twin.cnps_seen(), every.cnps_seen());
      if (mode == CnpMode::SenderGuard && guard >= 50 * kMicrosecond) {
        EXPECT_LT(kept, every.cnps_seen()) << "the guard swallowed nothing";
      } else if (mode != CnpMode::SenderGuard) {
        EXPECT_EQ(kept, every.cnps_seen());
      }
    }
  }
}

// The rate controller as it was before advance() learned to stop early: it
// walks every alpha and recovery period, one loop iteration each. Kept
// literally as the reference the catch-up shortcuts must match bit for bit.
class PeriodByPeriodDcqcn {
 public:
  PeriodByPeriodDcqcn(const DcqcnParams& params, double line_rate, CnpMode mode,
                      SimTime guard)
      : p_(params), line_rate_(line_rate), mode_(mode), guard_(guard),
        rc_(line_rate), rt_(line_rate) {}

  bool on_cnp(SimTime now) {
    ++cnps_seen_;
    advance(now);
    if (mode_ == CnpMode::SenderGuard && now - last_reaction_ < guard_) {
      return false;
    }
    last_reaction_ = now;
    ++reactions_;
    alpha_ = (1.0 - p_.g) * alpha_ + p_.g;
    rt_ = rc_;
    rc_ = std::max(rc_ * (1.0 - alpha_ / 2.0), p_.min_rate_fraction * line_rate_);
    stage_ = 0;
    increase_credit_ = 0;
    alpha_credit_ = 0;
    return true;
  }

  bool admit_cnp(SimTime arrival) {
    if (mode_ == CnpMode::SenderGuard && arrival - last_admitted_ < guard_) {
      ++cnps_seen_;
      return false;
    }
    last_admitted_ = arrival;
    return true;
  }

  double rate(SimTime now) {
    advance(now);
    return rc_;
  }

  [[nodiscard]] std::uint64_t reactions() const { return reactions_; }
  [[nodiscard]] std::uint64_t cnps_seen() const { return cnps_seen_; }

 private:
  void advance(SimTime now) {
    if (now <= clock_) return;
    const SimTime elapsed = now - clock_;
    clock_ = now;
    alpha_credit_ += elapsed;
    while (alpha_credit_ >= p_.alpha_timer) {
      alpha_credit_ -= p_.alpha_timer;
      alpha_ *= (1.0 - p_.g);
    }
    increase_credit_ += elapsed;
    while (increase_credit_ >= p_.increase_timer) {
      increase_credit_ -= p_.increase_timer;
      if (stage_ >= p_.fast_recovery_stages) {
        rt_ = std::min(rt_ + p_.additive_increase_fraction * line_rate_, line_rate_);
      }
      rc_ = std::min((rc_ + rt_) / 2.0, line_rate_);
      ++stage_;
    }
  }

  static constexpr SimTime kMinReaction = -(1LL << 62);
  DcqcnParams p_;
  double line_rate_;
  CnpMode mode_;
  SimTime guard_;
  double rc_;
  double rt_;
  double alpha_ = 1.0;
  int stage_ = 0;
  SimTime clock_ = 0;
  SimTime alpha_credit_ = 0;
  SimTime increase_credit_ = 0;
  SimTime last_reaction_ = kMinReaction;
  SimTime last_admitted_ = kMinReaction;
  std::uint64_t reactions_ = 0;
  std::uint64_t cnps_seen_ = 0;
};

// advance() skips the periods that can no longer change anything observable
// (alpha settled at what a reaction maps to g, recovery at a fixed point past
// fast recovery). Random interleavings of rate, on_cnp (single and in bursts
// at one instant, which drive the rate to its floor) and admit_cnp with a
// delayed on_cnp, in every CnpMode, with gaps from 0 to 20,000 periods (past
// alpha's underflow into subnormals), must give the same bits as walking
// every period. Each sweep point also runs with g = 0, g = 1, no additive
// increase, no fast recovery, and a recovery timer apart from alpha's.
TEST_P(DcqcnProperty, CatchUpMatchesWalkingEveryPeriod) {
  const auto [g, stages, additive] = GetParam();
  DcqcnParams base;
  base.g = g;
  base.fast_recovery_stages = stages;
  base.additive_increase_fraction = additive;
  std::vector<DcqcnParams> variants(6, base);
  variants[1].g = 0.0;
  variants[2].g = 1.0;
  variants[3].additive_increase_fraction = 0.0;
  variants[4].fast_recovery_stages = 0;
  variants[5].increase_timer = 13 * kMicrosecond;
  const double line = 12.5;
  const SimTime delay = 5 * kMicrosecond;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  std::uint64_t seed = 1;
  for (const DcqcnParams& p : variants) {
    for (const CnpMode mode : {CnpMode::SenderGuard, CnpMode::ReceiverTimer,
                               CnpMode::Unthrottled}) {
      Dcqcn cc(p, line, mode, 50 * kMicrosecond);
      PeriodByPeriodDcqcn ref(p, line, mode, 50 * kMicrosecond);
      Rng rng(seed++);
      std::deque<SimTime> in_flight;  // arrivals of admitted CNPs
      const auto deliver_until = [&](SimTime horizon) {
        while (!in_flight.empty() && in_flight.front() <= horizon) {
          const SimTime arrival = in_flight.front();
          in_flight.pop_front();
          ASSERT_EQ(cc.on_cnp(arrival), ref.on_cnp(arrival)) << "at " << arrival;
        }
      };

      SimTime now = 0;
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t r = rng.next_below(100);
        const auto periods = [&](std::uint64_t n) {
          return static_cast<SimTime>(rng.next_below(n * p.alpha_timer));
        };
        if (r < 25) {
          // same instant
        } else if (r < 55) {
          now += periods(1);
        } else if (r < 80) {
          now += periods(20);
        } else if (r < 95) {
          now += periods(1000);
        } else {
          now += periods(20'000);
        }
        deliver_until(now);
        if (HasFatalFailure()) return;
        switch (rng.next_below(4)) {
          case 0: {
            const int burst = 1 + static_cast<int>(rng.next_below(3) == 0
                                                       ? rng.next_below(12) : 0);
            for (int k = 0; k < burst; ++k) {
              ASSERT_EQ(cc.on_cnp(now), ref.on_cnp(now)) << "at " << now;
            }
            break;
          }
          case 1: {
            const bool admitted = cc.admit_cnp(now + delay);
            ASSERT_EQ(admitted, ref.admit_cnp(now + delay)) << "at " << now;
            if (admitted) in_flight.push_back(now + delay);
            break;
          }
          default:
            break;
        }
        ASSERT_EQ(bits(cc.rate(now)), bits(ref.rate(now)))
            << "g=" << p.g << " F=" << p.fast_recovery_stages
            << " ai=" << p.additive_increase_fraction << " at " << now;
      }
      deliver_until(now + delay);
      if (HasFatalFailure()) return;
      EXPECT_EQ(cc.reactions(), ref.reactions());
      EXPECT_EQ(cc.cnps_seen(), ref.cnps_seen());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Params, DcqcnProperty,
                         ::testing::Values(DcqcnSweep{1.0 / 16, 5, 0.005},
                                           DcqcnSweep{1.0 / 256, 5, 0.005},
                                           DcqcnSweep{1.0 / 16, 1, 0.001},
                                           DcqcnSweep{1.0 / 64, 10, 0.0005}));

// --- Figure-1 inequality generalizes across fabric sizes ------------------------

class BandwidthGapProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandwidthGapProperty, UnicastSchedulesNeverBeatOptimal) {
  const auto [spines, leaves] = GetParam();
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{spines, leaves, 4, 0});
  const NodeId source = ls.hosts[0];
  const std::vector<NodeId> dests(ls.hosts.begin() + 1, ls.hosts.end());

  Router router(ls.topo);
  const LinkLoad ring = unicast_load(ls.topo, router, ring_pairs(source, dests));
  const LinkLoad tree =
      unicast_load(ls.topo, router, binary_tree_pairs(source, dests));
  const MulticastTree opt = optimal_leaf_spine_tree(ls, source, dests, 0);
  const LinkLoad optimal = tree_load(ls.topo, opt);

  EXPECT_GE(ring.total(), optimal.total());
  EXPECT_GE(tree.total(), optimal.total());
  EXPECT_GE(ring.core_total(ls.topo), optimal.core_total(ls.topo));
  EXPECT_GE(tree.core_total(ls.topo), optimal.core_total(ls.topo));
  EXPECT_EQ(optimal.max_on_any_link(), 1);  // multicast never repeats a link
}

INSTANTIATE_TEST_SUITE_P(Fabrics, BandwidthGapProperty,
                         ::testing::Values(std::pair{2, 2}, std::pair{2, 4},
                                           std::pair{4, 8}, std::pair{8, 16}));

// --- Leaf-spine optimal construction equals the exact Steiner optimum -----------

class LeafSpineOptimalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafSpineOptimalProperty, ConstructionMatchesExact) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{3, 6, 2, 0});
  Rng rng(GetParam());
  std::vector<NodeId> pool = ls.hosts;
  rng.shuffle(pool);
  const std::size_t n = 2 + rng.next_below(6);
  const NodeId source = pool[0];
  std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + n);

  const MulticastTree opt = optimal_leaf_spine_tree(ls, source, dests, GetParam());
  ASSERT_TRUE(opt.validate(ls.topo).ok);
  EXPECT_EQ(static_cast<int>(opt.link_count()),
            exact_steiner_cost(ls.topo, source, dests));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSpineOptimalProperty,
                         ::testing::Range<std::uint64_t>(500, 515));

// --- Simulator byte conservation ----------------------------------------------

class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationProperty, OptimalBroadcastBytesMatchTreeExactly) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(GetParam());
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  const std::size_t n = 3 + rng.next_below(12);
  GroupSelection g;
  g.source = pool[0];
  g.destinations.assign(pool.begin() + 1, pool.begin() + 1 + n);

  const Bytes msg = 3 * kMiB + 137;  // deliberately unaligned
  const MulticastTree tree = optimal_tree(fabric, g.source, g.destinations, 1);
  std::size_t fabric_links = 0;
  for (LinkId l : tree.links()) {
    if (ft.topo.link(l).kind != LinkKind::NvLink) ++fabric_links;
  }

  SingleRunOptions run;
  run.scheme = Scheme::Optimal;
  run.group = g;
  run.message_bytes = msg;
  const SingleResult r = run_single_broadcast(fabric, run);
  // Every fabric tree link carries the message exactly once — no loss, no
  // duplication, independent of chunking/segmentation boundaries.
  EXPECT_EQ(r.fabric_bytes, static_cast<Bytes>(fabric_links) * msg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Range<std::uint64_t>(400, 415));

// --- Flow-fidelity utilization conservation ----------------------------------

class FlowUtilizationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

// The fluid engine's defining identity: on every link, the allocated-rate
// integral ∫rate dt equals the audited byte count at drain — under random
// chunk counts, deliberately unaligned chunk sizes, contention on a shared
// hop, and a mid-run cancel+close that strips a partial head chunk.
TEST_P(FlowUtilizationProperty, RateIntegralMatchesAuditedBytes) {
  Rng rng(GetParam());
  Topology topo;
  const NodeId h0 = topo.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId h1 = topo.add_node(Node{NodeKind::Host, 0, 1});
  const NodeId t0 = topo.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId t1 = topo.add_node(Node{NodeKind::Tor, 0, 1});
  const NodeId h2 = topo.add_node(Node{NodeKind::Host, 0, 2});
  const LinkId l0 = topo.add_duplex_link(h0, t0, GbpsRate{100.0}, 100,
                                         LinkKind::HostNic);
  const LinkId l1 = topo.add_duplex_link(h1, t0, GbpsRate{100.0}, 100,
                                         LinkKind::HostNic);
  const LinkId mid = topo.add_duplex_link(t0, t1, GbpsRate{100.0});
  const LinkId l2 = topo.add_duplex_link(t1, h2, GbpsRate{100.0}, 100,
                                         LinkKind::HostNic);

  SimConfig sim;
  EventQueue queue;
  FlowNetwork net(topo, sim, queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});

  StreamSpec a;  // h0 -> h2, contends with `b` on every shared hop
  a.source = h0;
  a.links = {l0, mid, l2};
  a.receivers = {h2};
  const StreamId sa = net.open_stream(std::move(a));

  StreamSpec b;  // h1 -> h2 through the same middle hop
  b.source = h1;
  b.links = {l1, mid, l2};
  b.receivers = {h2};
  const StreamId sb = net.open_stream(std::move(b));

  for (const StreamId s : {sa, sb}) {
    const int chunks = 1 + static_cast<int>(rng.next_below(5));
    const Bytes bytes = 64 * kKiB + rng.next_below(448 * kKiB) + 1;
    for (int c = 0; c < chunks; ++c) net.send_chunk(s, c, bytes);
  }
  // Half the seeds kill `b` mid-flight: the unsent tail returns, the close
  // strips a partial head whose fluid must leave the rate integrals too.
  bool b_closed = false;
  if (rng.next_below(2) == 0) {
    const SimTime cancel_at = (20 + rng.next_below(200)) * kMicrosecond;
    queue.after(cancel_at, [&net, &b_closed, sb] {
      net.cancel_unsent_chunks(sb);
      net.close_stream(sb);
      b_closed = true;
    });
  }
  queue.run();
  net.close_stream(sa);
  if (!b_closed) net.close_stream(sb);

  for (LinkId l = 0; l < static_cast<LinkId>(topo.link_count()); ++l) {
    EXPECT_NEAR(net.link_rate_integral(l),
                static_cast<double>(net.link_bytes(l)), 1.0)
        << "link " << l << ": ∫rate dt diverged from audited bytes";
  }
  EXPECT_GT(net.link_bytes(mid), 0u);
  EXPECT_EQ(net.segments_lost(), 0u);
}

// Grid-level corollary: the two engines share tree and chunk decisions, so
// the flow engine's audited totals (which the identity above pins to its
// rate integrals) must equal the packet engine's audit byte-for-byte.
TEST_P(FlowUtilizationProperty, FlowBytesMatchPacketAuditExactly) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  Rng rng(GetParam() + 7'000);
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  const std::size_t n = 3 + rng.next_below(12);
  SingleRunOptions run;
  run.scheme = rng.next_below(2) == 0 ? Scheme::Peel : Scheme::Optimal;
  run.group.source = pool[0];
  run.group.destinations.assign(pool.begin() + 1, pool.begin() + 1 + n);
  run.message_bytes = 2 * kMiB + 211;  // deliberately unaligned
  run.byte_audit = true;

  run.fidelity = Fidelity::Packet;
  const SingleResult packet = run_single_broadcast(fabric, run);
  run.fidelity = Fidelity::Flow;
  const SingleResult flow = run_single_broadcast(fabric, run);

  EXPECT_EQ(flow.fabric_bytes, packet.fabric_bytes);
  EXPECT_EQ(flow.core_bytes, packet.core_bytes);
  EXPECT_EQ(flow.nvlink_bytes, packet.nvlink_bytes);
  EXPECT_GT(flow.fabric_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowUtilizationProperty,
                         ::testing::Range<std::uint64_t>(500, 515));

// --- A link-list StreamSpec compiles like a slow reference -------------------

/// DataPlane::open_stream's pacing rule, walked the obvious way: from
/// `start`, take the first slowest link of each hop, and stop at the first
/// hop that fans out or leaves NVLink (at most four hops).
LinkId reference_pacing(const Topology& topo, NodeId start,
                        const std::function<std::vector<LinkId>(NodeId)>& hop) {
  LinkId first = kInvalidLink;
  for (int depth = 0; depth < 4; ++depth) {
    const std::vector<LinkId> links = hop(start);
    if (links.empty()) break;
    const LinkId slowest = *std::ranges::min_element(
        links, {}, [&](LinkId l) { return topo.link(l).rate.bytes_per_ns(); });
    if (first == kInvalidLink) first = slowest;
    const bool all_nvlink = std::ranges::all_of(
        links, [&](LinkId l) { return topo.link(l).kind == LinkKind::NvLink; });
    if (!all_nvlink || links.size() > 1) return slowest;
    start = topo.link(links.front()).dst;
  }
  return first;
}

/// What compile_stream must return for `spec`, or nullopt where it must
/// throw: out_links are the links stable-sorted by source node, parents
/// come from a breadth-first walk, and paths from enumerating every path
/// out of the source one by one.
std::optional<StreamTree> reference_compile(const Topology& topo,
                                            const StreamSpec& spec) {
  const auto valid = [&](NodeId n) {
    return n >= 0 && static_cast<std::size_t>(n) < topo.node_count();
  };
  if (!valid(spec.source) || !std::ranges::all_of(spec.receivers, valid) ||
      !std::ranges::all_of(spec.contributors, valid) ||
      !std::ranges::all_of(spec.links, [&](LinkId l) {
        return l >= 0 && static_cast<std::size_t>(l) < topo.link_count();
      })) {
    return std::nullopt;
  }
  StreamTree t;
  t.source = spec.source;
  t.cnp_mode = spec.cnp_mode;
  t.tag = spec.tag;
  std::set<NodeId> ids{spec.source};
  for (LinkId l : spec.links) {
    ids.insert(topo.link(l).src);
    ids.insert(topo.link(l).dst);
  }
  const std::vector<NodeId> id_list(ids.begin(), ids.end());
  const auto index = [&](NodeId n) {
    return static_cast<std::int32_t>(std::ranges::lower_bound(id_list, n) -
                                     id_list.begin());
  };
  const auto src_of = [&](LinkId l) { return topo.link(l).src; };
  t.out_links = spec.links;
  std::ranges::stable_sort(t.out_links, {}, src_of);
  for (LinkId l : t.out_links) t.out_dst.push_back(index(topo.link(l).dst));
  for (NodeId n : id_list) {
    StreamTree::Node& tn = t.nodes.emplace_back();
    tn.node = n;
    const auto range = std::ranges::equal_range(t.out_links, n, {}, src_of);
    tn.out_begin = static_cast<std::int32_t>(range.begin() - t.out_links.begin());
    tn.out_end = static_cast<std::int32_t>(range.end() - t.out_links.begin());
  }
  const auto at = [&](std::int32_t i) -> StreamTree::Node& {
    return t.nodes[static_cast<std::size_t>(i)];
  };
  const std::int32_t root = index(spec.source);
  if (at(root).out_begin == at(root).out_end) return std::nullopt;

  std::vector<char> seen(t.nodes.size(), 0);
  seen[static_cast<std::size_t>(root)] = 1;
  std::deque<std::int32_t> queue{root};
  while (!queue.empty()) {
    const std::int32_t i = queue.front();
    queue.pop_front();
    for (std::int32_t o = at(i).out_begin; o < at(i).out_end; ++o) {
      const std::int32_t c = t.out_dst[static_cast<std::size_t>(o)];
      if (seen[static_cast<std::size_t>(c)] != 0) continue;
      seen[static_cast<std::size_t>(c)] = 1;
      at(c).parent = t.out_links[static_cast<std::size_t>(o)];
      at(c).up = i;
      queue.push_back(c);
    }
  }
  std::vector<char> on_path(t.nodes.size(), 0);
  bool cycle = false;
  const std::function<void(std::int32_t)> walk = [&](std::int32_t i) {
    ++at(i).paths;
    on_path[static_cast<std::size_t>(i)] = 1;
    for (std::int32_t o = at(i).out_begin; o < at(i).out_end; ++o) {
      const std::int32_t c = t.out_dst[static_cast<std::size_t>(o)];
      if (on_path[static_cast<std::size_t>(c)] != 0) {
        cycle = true;
      } else {
        walk(c);
      }
    }
    on_path[static_cast<std::size_t>(i)] = 0;
  };
  walk(root);
  if (cycle) return std::nullopt;

  for (NodeId r : spec.receivers) {
    if (std::ranges::find(t.receivers, r) == t.receivers.end()) {
      t.receivers.push_back(r);
      t.receiver_at.push_back(ids.contains(r) ? index(r) : -1);
    }
  }
  const auto fan_out = [&](NodeId n) {
    const StreamTree::Node& tn = at(index(n));
    return std::vector<LinkId>(t.out_links.begin() + tn.out_begin,
                               t.out_links.begin() + tn.out_end);
  };
  if (spec.contributors.empty()) {
    t.injectors.push_back({spec.source, kInvalidLink,
                           reference_pacing(topo, spec.source, fan_out), root});
    return t;
  }
  if (std::ranges::count(seen, 0) != 0 ||
      spec.links.size() + 1 != t.nodes.size()) {
    return std::nullopt;  // not a tree rooted at the source
  }
  const auto climb = [&](NodeId n) {
    const LinkId parent = at(index(n)).parent;
    return parent == kInvalidLink
               ? std::vector<LinkId>{}
               : std::vector<LinkId>{topo.reverse_of(parent)};
  };
  for (NodeId c : spec.contributors) {
    if (!ids.contains(c) || !fan_out(c).empty()) return std::nullopt;
    t.injectors.push_back({c, topo.reverse_of(at(index(c)).parent),
                           reference_pacing(topo, c, climb), index(c)});
  }
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(t.nodes.size()); ++i) {
    const std::vector<LinkId> outs = fan_out(at(i).node);
    if (outs.empty()) continue;
    at(i).combiner = static_cast<std::int32_t>(t.combiners.size());
    StreamTree::Combiner& cb = t.combiners.emplace_back();
    cb.node = at(i).node;
    cb.at = i;
    if (at(i).parent != kInvalidLink) {
      cb.up_link = topo.reverse_of(at(i).parent);
    }
    for (LinkId l : outs) cb.child_links.push_back(topo.reverse_of(l));
    std::ranges::sort(cb.child_links);
  }
  return t;
}

void expect_same_tree(const StreamTree& got, const StreamTree& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.cnp_mode, want.cnp_mode);
  EXPECT_EQ(got.tag, want.tag);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const StreamTree::Node& g = got.nodes[i];
    const StreamTree::Node& w = want.nodes[i];
    SCOPED_TRACE("tree node " + std::to_string(i));
    EXPECT_EQ(g.node, w.node);
    EXPECT_EQ(g.parent, w.parent);
    EXPECT_EQ(g.up, w.up);
    EXPECT_EQ(g.paths, w.paths);
    EXPECT_EQ(g.out_begin, w.out_begin);
    EXPECT_EQ(g.out_end, w.out_end);
    EXPECT_EQ(g.combiner, w.combiner);
  }
  EXPECT_EQ(got.out_links, want.out_links);
  EXPECT_EQ(got.out_dst, want.out_dst);
  EXPECT_EQ(got.receivers, want.receivers);
  EXPECT_EQ(got.receiver_at, want.receiver_at);
  ASSERT_EQ(got.injectors.size(), want.injectors.size());
  for (std::size_t i = 0; i < want.injectors.size(); ++i) {
    SCOPED_TRACE("injector " + std::to_string(i));
    EXPECT_EQ(got.injectors[i].node, want.injectors[i].node);
    EXPECT_EQ(got.injectors[i].up_link, want.injectors[i].up_link);
    EXPECT_EQ(got.injectors[i].pace_link, want.injectors[i].pace_link);
    EXPECT_EQ(got.injectors[i].at, want.injectors[i].at);
  }
  ASSERT_EQ(got.combiners.size(), want.combiners.size());
  for (std::size_t i = 0; i < want.combiners.size(); ++i) {
    SCOPED_TRACE("combiner " + std::to_string(i));
    EXPECT_EQ(got.combiners[i].node, want.combiners[i].node);
    EXPECT_EQ(got.combiners[i].at, want.combiners[i].at);
    EXPECT_EQ(got.combiners[i].up_link, want.combiners[i].up_link);
    EXPECT_EQ(got.combiners[i].child_links, want.combiners[i].child_links);
  }
}

/// A random spec on `topo`: a random tree grown from a random source, then
/// zero to two edits (a node entered twice, a cycle through or away from
/// the source, a repeated, stray or dropped link), listed in shuffled
/// order. Half are reduce streams whose contributors are leaves, sometimes
/// plus an interior or outside node; receivers may repeat or be unreached.
StreamSpec random_link_list(const Topology& topo, Rng& rng) {
  const auto pick = [&](const auto& v) {
    return v[static_cast<std::size_t>(rng.next_below(v.size()))];
  };
  const auto random_node = [&] {
    return static_cast<NodeId>(rng.next_below(topo.node_count()));
  };
  StreamSpec spec;
  spec.source = random_node();
  spec.tag = rng.next_below(1000);
  spec.cnp_mode =
      rng.next_below(2) == 0 ? CnpMode::ReceiverTimer : CnpMode::SenderGuard;
  std::vector<NodeId> tree{spec.source};
  const std::size_t size = 1 + rng.next_below(12);
  for (int tries = 0; spec.links.size() < size && tries < 64; ++tries) {
    const LinkId l = pick(topo.out_links(pick(tree)));
    if (std::ranges::find(tree, topo.link(l).dst) != tree.end()) continue;
    spec.links.push_back(l);
    tree.push_back(topo.link(l).dst);
  }
  const bool reduce = rng.next_below(2) == 0;
  for (auto edits = rng.next_below(reduce ? 2 : 3); edits > 0; --edits) {
    switch (rng.next_below(6)) {
      case 0:  // into a node already entered, or back up: a cycle
        spec.links.push_back(pick(topo.out_links(pick(tree))));
        break;
      case 1:  // the mirror of a listed link: a 2-cycle
        spec.links.push_back(topo.reverse_of(pick(spec.links)));
        break;
      case 2:  // into the source
        spec.links.push_back(pick(topo.in_links(spec.source)));
        break;
      case 3:  // listed twice
        spec.links.push_back(pick(spec.links));
        break;
      case 4:  // anywhere, usually unreached from the source
        spec.links.push_back(
            static_cast<LinkId>(rng.next_below(topo.link_count())));
        break;
      default:  // dropped: strands a subtree, or silences the source
        spec.links.erase(spec.links.begin() +
                         static_cast<std::ptrdiff_t>(
                             rng.next_below(spec.links.size())));
        break;
    }
    if (spec.links.empty()) break;
  }
  rng.shuffle(spec.links);
  for (auto n = rng.next_below(5); n > 0; --n) {
    spec.receivers.push_back(pick(tree));
  }
  if (rng.next_below(4) == 0) spec.receivers.push_back(random_node());
  if (reduce) {
    for (NodeId n : tree) {
      const bool leaf = std::ranges::none_of(
          spec.links, [&](LinkId l) { return topo.link(l).src == n; });
      if (leaf && rng.next_below(3) != 0) spec.contributors.push_back(n);
    }
    if (spec.contributors.empty() || rng.next_below(5) == 0) {
      spec.contributors.push_back(rng.next_below(2) == 0 ? pick(tree)
                                                         : random_node());
    }
  }
  if (rng.next_below(40) == 0) {
    spec.links.push_back(static_cast<LinkId>(topo.link_count()));
  }
  return spec;
}

class StreamTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamTreeProperty, LinkListCompilesLikeTheReference) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  Rng rng(GetParam() + 9'000);
  int accepted_multicast = 0, accepted_reduce = 0, rejected = 0, repeats = 0;
  for (int c = 0; c < 400; ++c) {
    const StreamSpec spec = random_link_list(ft.topo, rng);
    SCOPED_TRACE("case " + std::to_string(c));
    const std::optional<StreamTree> want = reference_compile(ft.topo, spec);
    std::shared_ptr<const StreamTree> got;
    try {
      got = compile_stream(ft.topo, spec);
    } catch (const std::invalid_argument&) {
    }
    ASSERT_EQ(got != nullptr, want.has_value());
    if (!want) {
      ++rejected;
      continue;
    }
    expect_same_tree(*got, *want);
    ++(want->reduce() ? accepted_reduce : accepted_multicast);
    repeats += std::ranges::any_of(
        want->nodes, [](const StreamTree::Node& n) { return n.paths > 1; });
  }
  // Every kind of input shows up in each seed's sample.
  EXPECT_GT(accepted_multicast, 40);
  EXPECT_GT(accepted_reduce, 20);
  EXPECT_GT(rejected, 40);
  EXPECT_GT(repeats, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamTreeProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace peel
