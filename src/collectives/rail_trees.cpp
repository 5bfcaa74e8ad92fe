#include "src/collectives/rail_trees.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "src/prefix/cover.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace peel {
namespace {

/// Member GPUs grouped by server index.
std::map<int, std::vector<NodeId>> members_by_server(const RailFabric& rf,
                                                     std::span<const NodeId> dests) {
  std::map<int, std::vector<NodeId>> servers;
  for (NodeId d : dests) {
    if (rf.topo.kind(d) != NodeKind::Gpu) {
      throw std::invalid_argument("rail destinations must be GPUs");
    }
    servers[rf.host_index_of(d)].push_back(d);
  }
  return servers;
}

/// Attaches a member server: rail switch -> entry GPU -> NVSwitch -> other
/// member GPUs. Returns the endpoints that count as receivers.
void attach_server(const RailFabric& rf, MulticastTree& tree, NodeId rail_switch,
                   int host_index, int rail, std::span<const NodeId> member_gpus,
                   std::vector<NodeId>* receivers) {
  const Topology& topo = rf.topo;
  const NodeId entry = rf.gpu_at(host_index, rail);
  tree.add_link(topo, topo.find_link(rail_switch, entry));
  if (receivers == nullptr) return;  // over-covered server: copy discarded
  bool entry_is_member = false;
  std::vector<NodeId> via_nvswitch;
  for (NodeId g : member_gpus) {
    if (g == entry) {
      entry_is_member = true;
    } else {
      via_nvswitch.push_back(g);
    }
  }
  if (entry_is_member) receivers->push_back(entry);
  if (!via_nvswitch.empty()) {
    const NodeId host = rf.hosts[static_cast<std::size_t>(host_index)];
    tree.add_link(topo, topo.find_link(entry, host));
    for (NodeId g : via_nvswitch) {
      tree.add_link(topo, topo.find_link(host, g));
      receivers->push_back(g);
    }
  }
}

/// The source's own server: NVSwitch fan-out only.
void attach_source_server(const RailFabric& rf, MulticastTree& tree, NodeId source,
                          std::span<const NodeId> member_gpus,
                          std::vector<NodeId>* receivers) {
  const Topology& topo = rf.topo;
  const NodeId host = rf.hosts[static_cast<std::size_t>(rf.host_index_of(source))];
  bool host_linked = false;
  for (NodeId g : member_gpus) {
    if (g == source) continue;
    if (!host_linked) {
      tree.add_link(topo, topo.find_link(source, host));
      host_linked = true;
    }
    tree.add_link(topo, topo.find_link(host, g));
    if (receivers) receivers->push_back(g);
  }
}

}  // namespace

MulticastTree rail_optimal_tree(const RailFabric& rf, NodeId source,
                                std::span<const NodeId> destinations,
                                std::uint64_t selector) {
  const Topology& topo = rf.topo;
  const int rail = rf.rail_of(source);
  const int src_host = rf.host_index_of(source);
  const int src_segment = rf.segment_of_host(src_host);
  const auto servers = members_by_server(rf, destinations);

  MulticastTree tree(source, {destinations.begin(), destinations.end()});
  std::vector<NodeId> receivers;

  if (auto it = servers.find(src_host); it != servers.end()) {
    attach_source_server(rf, tree, source, it->second, &receivers);
  }

  // Segments with remote member servers.
  std::map<int, std::vector<int>> segments;  // segment -> host indices
  for (const auto& [h, gpus] : servers) {
    if (h != src_host) segments[rf.segment_of_host(h)].push_back(h);
  }
  if (segments.empty()) return tree;

  const NodeId src_rail_sw = rf.rail_switch_at(src_segment, rail);
  tree.add_link(topo, topo.find_link(source, src_rail_sw));

  NodeId spine = kInvalidNode;
  for (const auto& [segment, host_list] : segments) {
    NodeId rail_sw = src_rail_sw;
    if (segment != src_segment) {
      if (spine == kInvalidNode) {
        const int j = static_cast<int>(
            selector % static_cast<std::uint64_t>(rf.config.spines_per_rail));
        spine = rf.spines[static_cast<std::size_t>(
            rail * rf.config.spines_per_rail + j)];
        tree.add_link(topo, topo.find_link(src_rail_sw, spine));
      }
      rail_sw = rf.rail_switch_at(segment, rail);
      tree.add_link(topo, topo.find_link(spine, rail_sw));
    }
    for (int h : host_list) {
      attach_server(rf, tree, rail_sw, h, rail, servers.at(h), &receivers);
    }
  }
  return tree;
}

std::vector<PeelStream> rail_peel_streams(const RailFabric& rf, NodeId source,
                                          std::span<const NodeId> destinations,
                                          PeelCoverOptions cover) {
  const Topology& topo = rf.topo;
  const int rail = rf.rail_of(source);
  const int src_host = rf.host_index_of(source);
  const int src_segment = rf.segment_of_host(src_host);
  const auto servers = members_by_server(rf, destinations);
  const int m_host = id_bits(rf.config.hosts_per_segment);
  const int m_segment = id_bits(rf.config.segments);

  std::vector<PeelStream> streams;

  // Local server fan-out rides its own stream (no fabric hop).
  if (auto it = servers.find(src_host); it != servers.end()) {
    MulticastTree local(source, {});
    std::vector<NodeId> receivers;
    attach_source_server(rf, local, source, it->second, &receivers);
    if (!receivers.empty()) {
      streams.push_back(PeelStream{std::move(local), std::move(receivers)});
    }
  }

  // Per-segment server covers, merged across segments by identical prefix
  // (the same two-tier trick as pods in a fat-tree).
  struct Slice {
    std::vector<int> member_hosts;
    std::vector<int> redundant_hosts;
  };
  std::map<std::pair<std::uint32_t, int>, std::map<int, Slice>> classes;
  for (int segment = 0; segment < rf.config.segments; ++segment) {
    std::vector<int> member_ids;
    for (const auto& [h, gpus] : servers) {
      if (h != src_host && rf.segment_of_host(h) == segment) {
        member_ids.push_back(h % rf.config.hosts_per_segment);
      }
    }
    if (member_ids.empty()) continue;
    const MemberSet member_set = make_member_set(member_ids, m_host);
    std::vector<Prefix> prefixes;
    if (cover.max_tor_prefixes_per_pod > 0) {
      prefixes =
          bounded_cover(member_set, m_host, cover.max_tor_prefixes_per_pod).prefixes;
    } else {
      // The source server is a free don't-care: its rail switch sits on the
      // up-path, so sweeping it into a block costs nothing extra.
      MemberSet dont_care(member_set.size(), 0);
      if (segment == src_segment) {
        dont_care[static_cast<std::size_t>(src_host % rf.config.hosts_per_segment)] =
            1;
      }
      prefixes = exact_cover(member_set, dont_care, m_host);
    }
    for (const Prefix& p : prefixes) {
      Slice slice;
      const std::uint32_t start = p.block_start(m_host);
      for (std::uint32_t id = start; id < start + p.block_size(m_host); ++id) {
        if (static_cast<int>(id) >= rf.config.hosts_per_segment) continue;
        const int h = segment * rf.config.hosts_per_segment + static_cast<int>(id);
        if (h == src_host) continue;  // served locally
        if (servers.contains(h)) {
          slice.member_hosts.push_back(h);
        } else {
          slice.redundant_hosts.push_back(h);
        }
      }
      classes[{p.value, p.length}][segment] = std::move(slice);
    }
  }

  for (const auto& [key, by_segment] : classes) {
    std::vector<int> segment_ids;
    for (const auto& [segment, slice] : by_segment) segment_ids.push_back(segment);
    const MemberSet segment_set = make_member_set(segment_ids, m_segment);
    std::vector<Prefix> segment_blocks;
    if (cover.max_pod_blocks > 0) {
      segment_blocks =
          bounded_cover(segment_set, m_segment, cover.max_pod_blocks).prefixes;
    } else {
      segment_blocks = exact_cover(segment_set, m_segment);
    }
    for (const Prefix& sb : segment_blocks) {
      MulticastTree tree(source, {});
      std::vector<NodeId> receivers;
      const NodeId src_rail_sw = rf.rail_switch_at(src_segment, rail);
      tree.add_link(topo, topo.find_link(source, src_rail_sw));
      NodeId spine = kInvalidNode;

      const std::uint32_t sstart = sb.block_start(m_segment);
      for (std::uint32_t seg = sstart; seg < sstart + sb.block_size(m_segment);
           ++seg) {
        if (static_cast<int>(seg) >= rf.config.segments) continue;
        const auto slice_it = by_segment.find(static_cast<int>(seg));
        NodeId rail_sw = src_rail_sw;
        if (static_cast<int>(seg) != src_segment) {
          if (spine == kInvalidNode) {
            spine = rf.spines[static_cast<std::size_t>(
                rail * rf.config.spines_per_rail)];
            tree.add_link(topo, topo.find_link(src_rail_sw, spine));
          }
          rail_sw = rf.rail_switch_at(static_cast<int>(seg), rail);
          tree.add_link(topo, topo.find_link(spine, rail_sw));
        }
        if (slice_it == by_segment.end()) continue;  // over-covered segment
        for (int h : slice_it->second.member_hosts) {
          attach_server(rf, tree, rail_sw, h, rail, servers.at(h), &receivers);
        }
        for (int h : slice_it->second.redundant_hosts) {
          attach_server(rf, tree, rail_sw, h, rail, {}, nullptr);
        }
      }
      streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
    }
  }
  return streams;
}

std::size_t rail_switch_rule_count(const RailConfig& config) {
  return rule_count(id_bits(config.hosts_per_segment));
}

RailBroadcastResult simulate_rail_broadcast(const RailFabric& rf,
                                            const std::vector<PeelStream>& streams,
                                            Bytes message, int chunks,
                                            const SimConfig& sim) {
  EventQueue queue;
  Network net(rf.topo, sim, queue);
  std::size_t expected = 0;
  std::size_t delivered = 0;
  SimTime finish = -1;
  net.set_delivery_handler([&](const DeliveryEvent&) {
    if (++delivered == expected) finish = queue.now();
  });

  const auto chunk_sizes = split_chunks(message, chunks);
  for (const auto& s : streams) {
    if (s.receivers.empty()) continue;
    expected += s.receivers.size() * chunk_sizes.size();
    StreamSpec spec = spec_from_tree(s.tree, s.receivers);
    spec.cnp_mode = CnpMode::SenderGuard;
    const StreamId id = net.open_stream(std::move(spec));
    for (std::size_t c = 0; c < chunk_sizes.size(); ++c) {
      net.send_chunk(id, static_cast<int>(c), chunk_sizes[c]);
    }
  }
  queue.run();
  if (finish < 0) throw std::runtime_error("rail broadcast did not complete");

  RailBroadcastResult result;
  result.cct_seconds = sim_to_seconds(finish);
  for (LinkId l = 0; static_cast<std::size_t>(l) < rf.topo.link_count(); ++l) {
    if (rf.topo.link(l).kind == LinkKind::NvLink) {
      result.nvlink_bytes += net.link_bytes(l);
    } else {
      result.fabric_bytes += net.link_bytes(l);
    }
  }
  return result;
}

}  // namespace peel
