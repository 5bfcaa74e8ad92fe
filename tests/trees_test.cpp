#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/collectives/trees.h"
#include "src/steiner/layer_peel.h"
#include "src/topology/failures.h"

namespace peel {
namespace {

TEST(SpecFromTree, ForwardMapMatchesTreeLinks) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const Fabric fabric = Fabric::of(ft);
  std::vector<NodeId> dests{ft.gpus[3], ft.gpus[10], ft.gpus[25]};
  const MulticastTree tree = optimal_tree(fabric, ft.gpus[0], dests, 0);
  const StreamSpec spec = spec_from_tree(ft.topo, tree, dests);
  EXPECT_EQ(spec.source, ft.gpus[0]);
  EXPECT_EQ(spec.receivers, dests);
  std::size_t total_links = 0;
  for (const auto& [node, links] : spec.forward) total_links += links.size();
  EXPECT_EQ(total_links, tree.link_count());
}

TEST(SpecFromRoute, LinearChain) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 0});
  Router router(ft.topo);
  const Route route = router.path(ft.hosts[0], ft.hosts.back(), 1);
  const StreamSpec spec = spec_from_route(route);
  EXPECT_EQ(spec.source, ft.hosts[0]);
  ASSERT_EQ(spec.receivers.size(), 1u);
  EXPECT_EQ(spec.receivers[0], ft.hosts.back());
  for (const auto& [node, links] : spec.forward) {
    EXPECT_EQ(links.size(), 1u);  // unicast: one out-link per node
  }
  EXPECT_THROW(spec_from_route(Route{}), std::invalid_argument);
}

TEST(MembersByHost, GroupsGpusAndHosts) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const std::vector<NodeId> dests{ft.gpus[0], ft.gpus[1], ft.gpus[5]};
  const auto groups = members_by_host(ft.topo, dests);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].second.size(), 2u);  // gpus 0,1 on host 0
  EXPECT_EQ(groups[1].second.size(), 1u);
}

TEST(OrcaProgram, OneDesignatedHostPerRack) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const Fabric fabric = Fabric::of(ft);
  Router router(ft.topo);
  // Two full racks (2 hosts x 4 gpus each).
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 16);
  const OrcaProgram program = orca_program(fabric, router, source, dests, 7);

  EXPECT_TRUE(program.trunk.validate(ft.topo).ok);
  // Rack 0's designated host is the source host (no relay detour for it);
  // rack 1 has one designated + one relay.
  EXPECT_EQ(program.relays.size(), 2u);  // host1 (rack0) + one of rack1's
  std::set<NodeId> relay_targets;
  for (const auto& relay : program.relays) {
    EXPECT_FALSE(relay.route.links.empty());
    EXPECT_EQ(relay.route.nodes.front(), relay.designated_host);
    relay_targets.insert(relay.route.nodes.back());
    // Relay runs host -> ToR -> host: two fabric hops.
    EXPECT_EQ(relay.route.hops(), 2u);
  }
  // Trunk + relays cover all 15 destinations exactly once.
  std::multiset<NodeId> covered(program.trunk_receivers.begin(),
                                program.trunk_receivers.end());
  for (const auto& relay : program.relays) {
    covered.insert(relay.endpoints.begin(), relay.endpoints.end());
  }
  EXPECT_EQ(covered, std::multiset<NodeId>(dests.begin(), dests.end()));
}

TEST(PeelStaticTrees, TreesValidateAndPartition) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  const Fabric fabric = Fabric::of(ft);
  const NodeId source = ft.gpus[0];
  // Straddling group with a stray rack.
  std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 40);
  dests.push_back(ft.gpus[200]);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  const auto streams = peel_static_trees(fabric, plan, 3);
  std::multiset<NodeId> covered;
  for (const auto& s : streams) {
    EXPECT_TRUE(s.tree.validate(ft.topo).ok) << s.tree.validate(ft.topo).error;
    EXPECT_EQ(s.tree.source(), source);
    covered.insert(s.receivers.begin(), s.receivers.end());
  }
  EXPECT_EQ(covered, std::multiset<NodeId>(dests.begin(), dests.end()));
}

TEST(PeelStaticTrees, CompactCoverChargesRedundantRacks) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 1});
  const Fabric fabric = Fabric::of(ft);
  const NodeId source = ft.gpus[0];
  // Racks 0 and 3 of pod 0: compact cover sweeps racks 1-2 too.
  std::vector<NodeId> dests{ft.gpus[1], ft.gpus[2], ft.gpus[3],
                            ft.gpus[12], ft.gpus[13]};
  const PeelPlan plan =
      build_peel_plan(ft, source, dests, PeelCoverOptions::compact());
  ASSERT_EQ(plan.packets.size(), 1u);
  EXPECT_FALSE(plan.packets[0].redundant_tors.empty());
  const auto streams = peel_static_trees(fabric, plan, 0);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_TRUE(streams[0].tree.validate(ft.topo).ok);
  // The redundant racks appear in the tree (bytes are charged) but their
  // hosts are not receivers.
  std::multiset<NodeId> covered(streams[0].receivers.begin(),
                                streams[0].receivers.end());
  EXPECT_EQ(covered, std::multiset<NodeId>(dests.begin(), dests.end()));
  std::size_t tree_tors = 0;
  for (LinkId l : streams[0].tree.links()) {
    if (ft.topo.kind(ft.topo.link(l).dst) == NodeKind::Tor) ++tree_tors;
  }
  EXPECT_GT(tree_tors, 1u);  // member rack 3 + over-covered racks 1-2
}

/// First link of any stream into a core switch (a fat-tree core or a
/// leaf–spine spine), or kInvalidLink.
LinkId first_link_into_core(const Topology& topo,
                            const std::vector<PeelStream>& streams) {
  for (const PeelStream& s : streams) {
    for (LinkId l : s.tree.links()) {
      if (topo.kind(topo.link(l).dst) == NodeKind::Core) return l;
    }
  }
  return kInvalidLink;
}

/// Fails the first link a stream climbs into the core tier over, rebuilds,
/// and checks the rebuilt trees: valid on the damaged fabric, same receivers,
/// and every stream that did not cross the failed pair keeps its links.
template <typename Net>
void expect_steers_around_failed_uplink(Net& net, const PeelPlan& plan) {
  const Fabric fabric = Fabric::of(net);
  const auto intact = peel_static_trees(fabric, plan, 3);
  ASSERT_FALSE(intact.empty());
  const LinkId cut = first_link_into_core(net.topo, intact);
  ASSERT_NE(cut, kInvalidLink);
  net.topo.fail_duplex(cut);

  std::vector<PeelStream> rebuilt;
  ASSERT_NO_THROW(rebuilt = peel_static_trees(fabric, plan, 3));
  ASSERT_EQ(rebuilt.size(), intact.size());
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    const MulticastTree& tree = rebuilt[i].tree;
    EXPECT_TRUE(tree.validate(net.topo).ok) << tree.validate(net.topo).error;
    for (LinkId l : tree.links()) EXPECT_FALSE(net.topo.link(l).failed);
    EXPECT_EQ(rebuilt[i].receivers, intact[i].receivers);
    const auto& old_links = intact[i].tree.links();
    const bool crossed =
        std::any_of(old_links.begin(), old_links.end(), [&](LinkId l) {
          return l == cut || l == net.topo.reverse_of(cut);
        });
    if (!crossed) {
      EXPECT_EQ(tree.links(), old_links) << "stream " << i;
    }
  }
}

TEST(PeelStaticTrees, SteersAroundAFailedAggCoreLink) {
  FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 40);
  dests.push_back(ft.gpus[200]);  // a remote pod: rules climb to the core
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  expect_steers_around_failed_uplink(ft, plan);
}

TEST(PeelStaticTrees, SteersAroundAFailedLeafSpineLink) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 2});
  const NodeId source = ls.gpus[0];
  const std::vector<NodeId> dests(ls.gpus.begin() + 1, ls.gpus.end());
  const PeelPlan plan = build_peel_plan(ls, source, dests);
  expect_steers_around_failed_uplink(ls, plan);
}

TEST(PeelStaticTrees, ThrowsWhenNoReplicationSwitchIsReachable) {
  FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  const Fabric fabric = Fabric::of(ft);
  const NodeId source = ft.gpus[0];
  const std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 40);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  const NodeId src_tor = ft.topo.tor_of(ft.topo.host_of(source));
  for (int a = 0; a < ft.aggs_per_pod(); ++a) {
    ft.topo.fail_duplex(ft.topo.find_link(src_tor, ft.agg_at(0, a)));
  }
  EXPECT_THROW((void)peel_static_trees(fabric, plan, 3), std::runtime_error);
}

TEST(PeelAsymmetricTrees, DecomposesPerSpineAndPrefixBlock) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 2});
  // Make spine 0 unable to reach leaves 4-7 so the greedy tree needs two
  // spines (or one that reaches everything).
  for (int leaf = 4; leaf < 8; ++leaf) {
    ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[static_cast<std::size_t>(leaf)],
                                          ls.spines[0]));
  }
  const NodeId source = ls.gpus[0];
  std::vector<NodeId> dests(ls.gpus.begin() + 1, ls.gpus.end());
  const auto streams = peel_asymmetric_trees(ls, source, dests);
  ASSERT_FALSE(streams.empty());
  std::multiset<NodeId> covered;
  for (const auto& s : streams) {
    EXPECT_TRUE(s.tree.validate(ls.topo).ok) << s.tree.validate(ls.topo).error;
    covered.insert(s.receivers.begin(), s.receivers.end());
  }
  EXPECT_EQ(covered, std::multiset<NodeId>(dests.begin(), dests.end()));
}

TEST(PeelAsymmetricTrees, LocalRackOnlyGroup) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 2, 2});
  const NodeId source = ls.gpus[0];
  // All dests under the source leaf: single local stream, no spine.
  const std::vector<NodeId> dests{ls.gpus[1], ls.gpus[2], ls.gpus[3]};
  const auto streams = peel_asymmetric_trees(ls, source, dests);
  ASSERT_EQ(streams.size(), 1u);
  for (LinkId l : streams[0].tree.links()) {
    EXPECT_NE(ls.topo.kind(ls.topo.link(l).dst), NodeKind::Core);
  }
}

TEST(PeelAsymmetricTrees, OnePacketPerSpine) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 1});
  const NodeId source = ls.gpus[0];
  // Dests on leaves 1..7: greedy (symmetric here) picks one spine covering
  // all of them; one compact block (***) per spine = one stream. The source
  // leaf falls inside the block but is already on the up-path, so no
  // redundant copy is charged for it.
  std::vector<NodeId> dests(ls.gpus.begin() + 1, ls.gpus.end());
  const auto streams = peel_asymmetric_trees(ls, source, dests);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_TRUE(streams[0].tree.validate(ls.topo).ok);
  EXPECT_EQ(streams[0].receivers.size(), dests.size());
}

TEST(PeelAsymmetricTrees, OverCoveredLeafChargedOnce) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 4, 1, 1});
  const NodeId source = ls.gpus[0];
  // Members on leaves 1 and 3 only: the compact block covering {1,3} is
  // "**"(all four leaves); leaf 2 is swept up and discards, leaf 0 is the
  // source leaf (skipped).
  const std::vector<NodeId> dests{ls.gpus[1], ls.gpus[3]};
  const auto streams = peel_asymmetric_trees(ls, source, dests);
  ASSERT_EQ(streams.size(), 1u);
  const auto& tree = streams[0].tree;
  EXPECT_TRUE(tree.validate(ls.topo).ok);
  EXPECT_TRUE(tree.contains(ls.leaves[2]));   // redundant copy charged
  EXPECT_EQ(tree.out_links_of(ls.leaves[2]).size(), 0u);  // ...and dropped
}

}  // namespace
}  // namespace peel
