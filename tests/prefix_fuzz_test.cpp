// Seeded fuzzing of the §3.2 prefix machinery: random member sets over every
// identifier width the paper's fat-trees use, checked against first-principles
// properties rather than golden outputs.
//
// Invariants fuzzed here:
//   - exact_cover covers exactly the member set (zero redundancy), with
//     disjoint aligned blocks and no mergeable buddy pair left unmerged
//   - the don't-care variant never absorbs a plain non-member and never emits
//     an all-don't-care block
//   - bounded_cover covers every member within its block budget and reports
//     `redundant` equal to the actual number of over-covered non-members
//   - an aggregation switch needs at most k-1 = 2^(m+1)-1 static rules, and
//     every rule lookup returns exactly the block's live ports
//   - the <value,len> wire encoding round-trips losslessly and fits in
//     tuple_header_bits(m) bits
//   - the fused in-network reduce spec built from random groups' prefix
//     parts is a tree whose aggregation fan-in sets mirror the forward
//     fan-out sets link-for-link, with every rank contributing exactly once
//     and identical rule-table occupancy in both directions
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/collectives/trees.h"
#include "src/common/rng.h"
#include "src/prefix/cover.h"
#include "src/prefix/plan.h"
#include "src/prefix/prefix.h"
#include "src/topology/fat_tree.h"

namespace peel {
namespace {

constexpr int kTrials = 300;

/// Expands a prefix list back into a membership bitmap; fails the test on
/// overlapping blocks (each id must be covered at most once).
MemberSet expand(const std::vector<Prefix>& prefixes, int m) {
  MemberSet covered(std::size_t{1} << m, 0);
  for (const Prefix& p : prefixes) {
    EXPECT_LE(p.length, m);
    EXPECT_LT(p.value, std::uint32_t{1} << p.length);
    for (std::uint32_t id = p.block_start(m);
         id < p.block_start(m) + p.block_size(m); ++id) {
      EXPECT_FALSE(covered[id]) << "blocks overlap at id " << id;
      covered[id] = 1;
    }
  }
  return covered;
}

MemberSet random_members(Rng& rng, int m) {
  MemberSet members(std::size_t{1} << m, 0);
  // Vary density across trials so empty, sparse, dense, and full sets all
  // appear.
  const double density = rng.next_double();
  for (auto& bit : members) bit = rng.next_double() < density ? 1 : 0;
  return members;
}

TEST(PrefixFuzz, ExactCoverIsExactAndMinimal) {
  Rng rng(0x5eed'c0deULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int m = 1 + static_cast<int>(rng.next_below(5));
    const MemberSet members = random_members(rng, m);
    const std::vector<Prefix> cover = exact_cover(members, m);

    // Exact: the expansion reproduces the member set bit for bit.
    EXPECT_EQ(expand(cover, m), members) << "m=" << m << " trial=" << trial;

    // Minimal: no two emitted blocks are buddies (same length, values
    // differing only in the last bit) — buddies would merge into the parent.
    for (std::size_t i = 0; i < cover.size(); ++i) {
      for (std::size_t j = i + 1; j < cover.size(); ++j) {
        const bool buddies = cover[i].length == cover[j].length &&
                             cover[i].length > 0 &&
                             (cover[i].value ^ cover[j].value) == 1u;
        EXPECT_FALSE(buddies) << cover[i].to_string(m) << " and "
                              << cover[j].to_string(m) << " should merge";
      }
    }

    // Sorted by block start, the documented determinism contract.
    for (std::size_t i = 1; i < cover.size(); ++i) {
      EXPECT_LT(cover[i - 1].block_start(m), cover[i].block_start(m));
    }
  }
}

TEST(PrefixFuzz, DontCareCoverNeverLeaksNonMembers) {
  Rng rng(0xd0'0dca'4eULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int m = 1 + static_cast<int>(rng.next_below(5));
    const std::size_t size = std::size_t{1} << m;
    MemberSet members(size, 0), dont_care(size, 0);
    for (std::size_t id = 0; id < size; ++id) {
      const auto roll = rng.next_below(3);
      if (roll == 0) members[id] = 1;
      if (roll == 1) dont_care[id] = 1;  // never both
    }
    const std::vector<Prefix> cover = exact_cover(members, dont_care, m);
    const MemberSet covered = expand(cover, m);
    for (std::size_t id = 0; id < size; ++id) {
      if (members[id]) {
        EXPECT_TRUE(covered[id]) << "member " << id << " uncovered";
      } else if (!dont_care[id]) {
        EXPECT_FALSE(covered[id]) << "plain non-member " << id << " covered";
      }
    }
    // Every emitted block must contain at least one real member.
    for (const Prefix& p : cover) {
      bool any_member = false;
      for (std::uint32_t id = p.block_start(m);
           id < p.block_start(m) + p.block_size(m); ++id) {
        any_member |= members[id] != 0;
      }
      EXPECT_TRUE(any_member) << "all-don't-care block " << p.to_string(m);
    }
  }
}

TEST(PrefixFuzz, BoundedCoverHonorsBudgetAndCountsRedundancy) {
  Rng rng(0xb0'0ded'15ULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int m = 1 + static_cast<int>(rng.next_below(5));
    const MemberSet members = random_members(rng, m);
    if (member_count(members) == 0) continue;
    const int budget = 1 + static_cast<int>(rng.next_below(6));
    const BoundedCover bounded = bounded_cover(members, m, budget);

    EXPECT_LE(static_cast<int>(bounded.prefixes.size()), budget);
    const MemberSet covered = expand(bounded.prefixes, m);
    int redundant = 0;
    for (std::size_t id = 0; id < members.size(); ++id) {
      if (members[id]) {
        EXPECT_TRUE(covered[id]) << "member " << id << " lost to the budget";
      } else if (covered[id]) {
        ++redundant;
      }
    }
    EXPECT_EQ(bounded.redundant, redundant);

    // A budget at least as large as the exact cover degenerates to it.
    const std::vector<Prefix> exact = exact_cover(members, m);
    if (budget >= static_cast<int>(exact.size())) {
      EXPECT_EQ(bounded.prefixes, exact);
      EXPECT_EQ(bounded.redundant, 0);
    }
  }
}

TEST(PrefixFuzz, RuleTableMatchesBlockMembership) {
  Rng rng(0x4a'b1e5ULL);
  for (int m = 1; m <= 5; ++m) {
    // At most k-1 pre-installed rules for m = log2(k/2): the paper's
    // deploy-once table size.
    const std::size_t expected_rules = (std::size_t{2} << m) - 1;
    EXPECT_EQ(rule_count(m), expected_rules);
    const int live = 1 + static_cast<int>(rng.next_below(std::uint64_t{1} << m));
    const PrefixRuleTable table(m, live);
    EXPECT_EQ(table.size(), expected_rules);

    for (int length = 0; length <= m; ++length) {
      for (std::uint32_t value = 0; value < (std::uint32_t{1} << length);
           ++value) {
        const Prefix p{value, length};
        const std::vector<int>& ports = table.match(p);
        // Exactly the live ports inside the block, in order.
        std::vector<int> want;
        for (std::uint32_t id = p.block_start(m);
             id < p.block_start(m) + p.block_size(m); ++id) {
          if (static_cast<int>(id) < live) want.push_back(static_cast<int>(id));
        }
        EXPECT_EQ(ports, want) << p.to_string(m) << " live=" << live;
      }
    }
    EXPECT_THROW((void)table.match(Prefix{0, m + 1}), std::out_of_range);
    EXPECT_THROW((void)table.match(Prefix{std::uint32_t{1} << m, m}),
                 std::out_of_range);
  }
}

TEST(PrefixFuzz, TupleEncodingRoundTrips) {
  for (int m = 1; m <= 6; ++m) {
    // The §3.2 information-theoretic budget: m value bits plus enough bits to
    // express lengths 0..m. The wire layout spends a full byte on the length
    // (m + 8 bits total), so the budget is always a lower bound on it.
    EXPECT_GE(m + 8, tuple_header_bits(m));
    for (int length = 0; length <= m; ++length) {
      for (std::uint32_t value = 0; value < (std::uint32_t{1} << length);
           ++value) {
        const Prefix p{value, length};
        const std::uint32_t wire = encode_tuple(p, m);
        // Left-aligned value field plus 8-bit length: never wider than m+8.
        EXPECT_LT(wire, std::uint32_t{1} << (m + 8));
        const Prefix back = decode_tuple(wire, m);
        EXPECT_EQ(back, p) << "m=" << m << " wire=" << wire;
      }
    }
  }
  // Malformed tuples are rejected on both sides of the wire.
  EXPECT_THROW((void)encode_tuple(Prefix{2, 1}, 3), std::out_of_range);
  EXPECT_THROW((void)decode_tuple(0xffu, 3), std::out_of_range);
}

TEST(PrefixFuzz, InNetFusedSpecMirrorsForwardCover) {
  // Random groups through the whole in-network reduce planning path: PEEL
  // prefix plan -> per-packet trees -> innet_fused_spec. The properties are
  // the reduce-correctness contract, not golden outputs:
  //   - the parts partition the non-root members (prefix exactness carried
  //     through tree expansion),
  //   - every rank appears exactly once among contributors and receivers,
  //   - the forward map is a tree rooted at the pivot with every member a
  //     leaf, reachable from the pivot,
  //   - each forward link is duplex and used once, so the aggregation
  //     fan-in set of every switch is link-for-link the reverse of its
  //     forward fan-out set — identical rule-table occupancy both ways.
  Rng rng(0x1'44ed'5eedULL);
  const FatTree small = build_fat_tree(FatTreeConfig{4, 2, 4});
  const FatTree mid = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabrics[2] = {Fabric::of(small), Fabric::of(mid)};
  for (int trial = 0; trial < kTrials; ++trial) {
    const bool use_mid = (trial & 1) != 0;
    const Fabric& fabric = fabrics[use_mid ? 1 : 0];
    const Topology& topo = fabric.topo();
    const std::vector<NodeId>& gpus =
        use_mid ? mid.endpoints() : small.endpoints();

    const std::size_t group =
        2 + static_cast<std::size_t>(rng.next_below(31));
    std::vector<NodeId> members;
    std::unordered_set<NodeId> taken;
    while (members.size() < group) {
      const NodeId g = gpus[rng.next_below(gpus.size())];
      if (taken.insert(g).second) members.push_back(g);
    }
    const NodeId root = members.front();
    const std::vector<NodeId> others(members.begin() + 1, members.end());

    const PeelPlan plan =
        use_mid ? build_peel_plan(mid, root, others)
                : build_peel_plan(small, root, others);
    const std::vector<PeelStream> parts = peel_static_trees(fabric, plan, 0);

    // The parts partition the non-root members: each exactly once.
    std::unordered_set<NodeId> served;
    for (const PeelStream& part : parts) {
      for (NodeId r : part.receivers) {
        EXPECT_TRUE(served.insert(r).second)
            << "rank " << r << " served by two parts (trial " << trial << ")";
      }
    }
    EXPECT_EQ(served.size(), others.size());
    for (NodeId r : others) EXPECT_TRUE(served.contains(r));

    const StreamSpec spec = innet_fused_spec(topo, parts, root, members);

    // Exactly-once contribution: the contributor set is the member set.
    EXPECT_EQ(spec.contributors.size(), members.size());
    EXPECT_EQ(spec.receivers.size(), members.size());
    std::unordered_set<NodeId> contributors(spec.contributors.begin(),
                                            spec.contributors.end());
    EXPECT_EQ(contributors.size(), members.size()) << "duplicate contributor";
    for (NodeId m : members) EXPECT_TRUE(contributors.contains(m));

    // The links are a tree rooted at the pivot; members are leaves.
    std::unordered_map<NodeId, NodeId> parent;
    std::unordered_map<NodeId, std::vector<LinkId>> fan_out;
    std::unordered_set<LinkId> used;
    for (LinkId l : spec.links) {
      const Link& lk = topo.link(l);
      fan_out[lk.src].push_back(l);
      EXPECT_TRUE(used.insert(l).second)
          << "forward link " << l << " used twice";
      EXPECT_TRUE(parent.try_emplace(lk.dst, lk.src).second)
          << "node " << lk.dst << " has two parents";
      // Duplex: the mirrored up-link exists and is the exact reverse, so
      // the contribution path is link-for-link the forward path flipped.
      const LinkId rev = topo.reverse_of(l);
      ASSERT_NE(rev, kInvalidLink) << "forward link without a mirror";
      EXPECT_EQ(topo.link(rev).src, lk.dst);
      EXPECT_EQ(topo.link(rev).dst, lk.src);
    }
    EXPECT_FALSE(parent.contains(spec.source)) << "pivot has a parent";
    EXPECT_TRUE(fan_out.contains(spec.source))
        << "pivot is not an interior node";
    for (NodeId m : members) {
      EXPECT_FALSE(fan_out.contains(m)) << "member is an interior node";
      // Every member hangs off the tree: walk up to the pivot in a bounded
      // number of hops (tree height is at most GPU->host->ToR->agg->core and
      // back down).
      NodeId n = m;
      int hops = 0;
      while (n != spec.source && hops < 16) {
        const auto it = parent.find(n);
        ASSERT_NE(it, parent.end())
            << "member " << m << " disconnected at " << n;
        n = it->second;
        ++hops;
      }
      EXPECT_EQ(n, spec.source) << "member " << m << " never reaches pivot";
    }

    // Mirror occupancy: the aggregation fan-in set of every interior node is
    // exactly the reverses of its forward fan-out set, so the rule-table
    // occupancy of the mirrored (reduce) plan equals the forward plan's at
    // every switch.
    for (const auto& [n, links] : fan_out) {
      std::vector<LinkId> fan_in;
      fan_in.reserve(links.size());
      for (LinkId l : links) fan_in.push_back(topo.reverse_of(l));
      std::sort(fan_in.begin(), fan_in.end());
      EXPECT_EQ(fan_in.size(), links.size());
      EXPECT_TRUE(std::adjacent_find(fan_in.begin(), fan_in.end()) ==
                  fan_in.end())
          << "duplicate fan-in link at node " << n;
      for (LinkId l : fan_in) {
        EXPECT_EQ(topo.link(l).dst, n)
            << "fan-in link does not terminate at its combiner";
      }
    }
  }
}

TEST(PrefixFuzz, CoverOfRandomRackSetsSurvivesEncodeDecode) {
  // End-to-end: cover a random rack set, ship every tuple across the wire,
  // and re-expand on the far side — the delivered set must be the member set.
  Rng rng(0xe2e'0fadULL);
  for (int trial = 0; trial < kTrials; ++trial) {
    const int m = 1 + static_cast<int>(rng.next_below(5));
    const MemberSet members = random_members(rng, m);
    std::vector<Prefix> received;
    for (const Prefix& p : exact_cover(members, m)) {
      received.push_back(decode_tuple(encode_tuple(p, m), m));
    }
    EXPECT_EQ(expand(received, m), members);
  }
}

}  // namespace
}  // namespace peel
