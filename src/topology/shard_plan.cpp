#include "src/topology/shard_plan.h"

#include <algorithm>

namespace peel {

namespace {

/// Fills everything but node_domain (set by the caller): link owners, the
/// lookahead, and the dense slot numbering.
void number_plan(const Topology& topo, ShardPlan& plan) {
  const auto domains = static_cast<std::size_t>(plan.domains);
  plan.domain_nodes.assign(domains, 0);
  plan.node_slot.resize(topo.node_count());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    plan.node_slot[n] =
        plan.domain_nodes[static_cast<std::size_t>(plan.node_domain[n])]++;
  }

  plan.link_domain.resize(topo.link_count());
  plan.link_slot.resize(topo.link_count());
  plan.rx_slot.resize(topo.link_count());
  plan.domain_link_slots.assign(domains, 0);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const Link& lk = topo.link(static_cast<LinkId>(l));
    const std::int32_t src_dom =
        plan.node_domain[static_cast<std::size_t>(lk.src)];
    plan.link_domain[l] = src_dom;
    plan.link_slot[l] =
        plan.domain_link_slots[static_cast<std::size_t>(src_dom)]++;
    plan.rx_slot[l] = plan.link_slot[l];
  }
  // Mirrors come after each domain's own links, in ascending link id.
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const Link& lk = topo.link(static_cast<LinkId>(l));
    const std::int32_t dst_dom =
        plan.node_domain[static_cast<std::size_t>(lk.dst)];
    if (dst_dom == plan.link_domain[l]) continue;
    plan.rx_slot[l] =
        plan.domain_link_slots[static_cast<std::size_t>(dst_dom)]++;
    ++plan.cross_links;
    if (plan.lookahead == 0 || lk.propagation < plan.lookahead) {
      plan.lookahead = lk.propagation;
    }
  }
}

}  // namespace

ShardPlan build_shard_plan(const Topology& topo) {
  ShardPlan plan;
  plan.node_domain.resize(topo.node_count());

  // Map distinct pod indices to dense domain ids in ascending pod order, so
  // the layout is a pure function of the topology (never of insertion order).
  std::vector<std::int32_t> pods;
  bool has_core_tier = false;
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const std::int32_t pod = topo.node(static_cast<NodeId>(n)).pod;
    if (pod < 0) {
      has_core_tier = true;
    } else {
      pods.push_back(pod);
    }
  }
  std::sort(pods.begin(), pods.end());
  pods.erase(std::unique(pods.begin(), pods.end()), pods.end());

  const auto pod_domains = static_cast<std::int32_t>(pods.size());
  plan.domains = std::max(1, pod_domains + (has_core_tier ? 1 : 0));
  const std::int32_t core_domain = has_core_tier ? pod_domains : 0;

  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const std::int32_t pod = topo.node(static_cast<NodeId>(n)).pod;
    if (pod < 0) {
      plan.node_domain[n] = core_domain;
    } else {
      plan.node_domain[n] = static_cast<std::int32_t>(
          std::lower_bound(pods.begin(), pods.end(), pod) - pods.begin());
    }
  }
  number_plan(topo, plan);
  return plan;
}

ShardPlan single_domain_plan(const Topology& topo) {
  ShardPlan plan;
  plan.node_domain.assign(topo.node_count(), 0);
  number_plan(topo, plan);
  return plan;
}

}  // namespace peel
