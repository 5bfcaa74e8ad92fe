#include "src/sim/flow_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace peel {

FlowNetwork::FlowNetwork(const Topology& topo, const SimConfig& config,
                         EventQueue& queue)
    : topo_(&topo), config_(config), queue_(&queue) {
  config_.validate();
  links_.resize(topo.link_count());
  link_slot_.assign(topo.link_count(), -1);
  if (config_.telemetry.enabled) {
    telem_ = std::make_unique<Telemetry>(config_.telemetry, topo);
  }
}

FlowNetwork::~FlowNetwork() = default;

Bytes FlowNetwork::last_segment(Bytes bytes) const noexcept {
  const Bytes rem = bytes % config_.segment_bytes;
  return rem > 0 ? rem : std::min(bytes, config_.segment_bytes);
}

// ---------------------------------------------------------------------------
// Stream lifecycle

StreamId FlowNetwork::open_stream(StreamSpec spec) {
  std::shared_ptr<const StreamTree> tree = compile_stream(*topo_, spec);
  const StreamTree& t = *tree;
  const auto id = static_cast<StreamId>(flows_.size());
  flows_.emplace_back();
  FlowState& f = flows_.back();
  f.tag = t.tag;

  // The directed link set, each link with the copies of a chunk it
  // carries: one per path into a reached node, per listing of the link
  // under it — exactly the packet engine's replication, so an unreached
  // node's out-links carry nothing. A reduce stream adds the reverse of
  // each out-link: the contributor up-paths that mirror the down-tree.
  std::vector<std::pair<LinkId, std::int64_t>> carried;
  carried.reserve(t.out_links.size() * (t.reduce() ? 2 : 1));
  for (const StreamTree::Node& tn : t.nodes) {
    if (tn.paths == 0) continue;
    for (LinkId l : t.out_of(tn)) carried.emplace_back(l, tn.paths);
  }
  if (t.reduce()) {
    for (LinkId l : t.out_links) carried.emplace_back(topo_->reverse_of(l), 1);
  }
  std::sort(carried.begin(), carried.end());
  f.links.reserve(carried.size());
  f.link_copies.reserve(carried.size());
  for (const auto& [l, copies] : carried) {
    if (!f.links.empty() && f.links.back() == l) {
      f.link_copies.back() += copies;
    } else {
      f.links.push_back(l);
      f.link_copies.push_back(copies);
    }
  }
  f.link_live.assign(f.links.size(), 1);

  // Path timing: walk the parent links back to the source, accumulating
  // propagation plus per-hop line-rate inverse (the cut-through delay of the
  // chunk's final segment). Returns the hop count, or -1 for a node the
  // source never reaches.
  const auto walk = [&](NodeId from, SimTime& prop, double& inv) {
    const StreamTree::Node* n = t.find(from);
    if (n == nullptr || (n->up < 0 && from != t.source)) return -1;
    int hops = 0;
    for (; n->up >= 0; n = &t.nodes[static_cast<std::size_t>(n->up)], ++hops) {
      const Link& lk = topo_->link(n->parent);
      prop += lk.propagation;
      inv += 1.0 / lk.rate.bytes_per_ns();
    }
    return hops;
  };
  f.recvs.reserve(t.receivers.size());
  for (NodeId r : t.receivers) {
    RecvInfo ri;
    ri.node = r;
    // A receiver the forward map never reaches is never credited: the audit
    // and the stuck-flow diagnostic report it.
    ri.live = walk(r, ri.prop_sum, ri.inv_rate_sum) >= 0;
    if (ri.live) ri.paths = t.find(r)->paths;
    f.recvs.push_back(ri);
  }
  if (t.reduce()) {
    // The pipeline's tail byte must climb from the slowest contributor to
    // the pivot (one combine latency per aggregation hop) before the down
    // multicast can retire it.
    for (const StreamTree::Injector& inj : t.injectors) {
      SimTime prop = 0;
      double inv = 0.0;
      const int hops = walk(inj.node, prop, inv);
      const SimTime up =
          prop +
          static_cast<SimTime>(std::ceil(
              static_cast<double>(last_segment(config_.segment_bytes)) * inv)) +
          config_.reduce_combine_latency * hops;
      f.up_offset = std::max(f.up_offset, up);
    }
  }

  if (telem_) telem_->on_stream_open(id, t, t.receivers);

  f.tree = std::move(tree);
  if (topo_->failed_link_count() > 0) refresh_live_set(id);
  return id;
}

void FlowNetwork::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  FlowState& f = flow(stream);
  if (f.closed) throw std::logic_error("send_chunk on closed stream");
  if (bytes <= 0) throw std::invalid_argument("chunk bytes must be positive");
  if (chunk_index < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  const auto ci = static_cast<std::size_t>(chunk_index);
  if (f.sent.size() <= ci) f.sent.resize(ci + 1, 0);
  if (f.sent[ci] != 0) {
    throw std::logic_error("chunk index already sent on this stream");
  }
  f.sent[ci] = 1;
  if (telem_) telem_->on_chunk_target(stream, chunk_index, bytes);
  f.pending.push_back(PendingChunk{chunk_index, bytes});
  if (!f.active && !f.frozen) activate(stream);
}

std::vector<int> FlowNetwork::cancel_unsent_chunks(StreamId stream) {
  FlowState& f = flow(stream);
  std::vector<int> cancelled;
  if (f.closed) return cancelled;
  if (f.tree->reduce()) {
    throw std::logic_error(
        "cancel_unsent_chunks: in-network reduce streams cannot be cancelled");
  }
  settle(stream, queue_->now());
  // Keep the chunk currently mid-transfer (if any); drop the rest.
  std::size_t keep = f.pending_head;
  if (keep < f.pending.size() && f.head_done > 0.0) ++keep;
  for (std::size_t i = keep; i < f.pending.size(); ++i) {
    const int chunk = f.pending[i].chunk;
    cancelled.push_back(chunk);
    f.sent[static_cast<std::size_t>(chunk)] = 0;
    if (telem_) telem_->on_chunk_target(stream, chunk, 0);
  }
  f.pending.resize(keep);
  if (f.active && f.pending_head == f.pending.size()) deactivate(stream);
  return cancelled;
}

void FlowNetwork::close_stream(StreamId stream) {
  FlowState& f = flow(stream);
  if (f.closed) return;
  const SimTime now = queue_->now();
  settle(stream, now);
  if (f.active && f.head_done > 0.0) {
    // The head chunk's partial fluid dies with the stream: it was never
    // serialized (lump-sum accounting fires at completion), so take it back
    // out of the rate integrals to keep them equal to the audited bytes.
    add_fluid(f, -f.head_done);
  }
  const bool complete = f.pending_head == f.pending.size() &&
                        !f.short_delivery && !f.frozen;
  if (telem_) telem_->on_stream_close(stream, complete);
  if (f.active) {
    detach(stream);
    f.active = false;
    f.rate = 0.0;
    ++f.gen;
    f.completion_scheduled = false;
    // Before marking the stream closed: the component walk starts from the
    // seed's links, and a closed seed has none, so its former neighbours
    // would keep their shares of the bandwidth it freed.
    recompute_component(stream);
  }
  f.closed = true;
  auto release = [](auto& c) { std::decay_t<decltype(c)>{}.swap(c); };
  f.tree.reset();
  release(f.links);
  release(f.link_live);
  release(f.link_copies);
  release(f.sent);
  release(f.recvs);
  release(f.pending);
  f.pending_head = 0;
  f.head_done = 0.0;
}

// ---------------------------------------------------------------------------
// Progress accrual and completion

void FlowNetwork::settle(StreamId s, SimTime now) {
  FlowState& f = flow(s);
  const SimTime dt = now - f.last_settle;
  f.last_settle = now;
  if (!f.active || dt <= 0 || f.rate <= 0.0) return;
  const PendingChunk& head = f.pending[f.pending_head];
  const double remaining = static_cast<double>(head.bytes) - f.head_done;
  const double progressed =
      std::min(f.rate * static_cast<double>(dt), remaining);
  if (progressed <= 0.0) return;
  f.head_done += progressed;
  add_fluid(f, progressed);
}

void FlowNetwork::add_fluid(const FlowState& f, double bytes) {
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (f.link_live[i]) {
      links_[static_cast<std::size_t>(f.links[i])].util_integral +=
          bytes * f.link_copies[i];
    }
  }
}

void FlowNetwork::attach(StreamId s) {
  FlowState& f = flow(s);
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (f.link_live[i]) {
      links_[static_cast<std::size_t>(f.links[i])].active.push_back(s);
    }
  }
}

void FlowNetwork::detach(StreamId s) {
  FlowState& f = flow(s);
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (!f.link_live[i]) continue;
    auto& v = links_[static_cast<std::size_t>(f.links[i])].active;
    v.erase(std::remove(v.begin(), v.end(), s), v.end());
  }
}

void FlowNetwork::activate(StreamId s) {
  FlowState& f = flow(s);
  f.active = true;
  f.last_settle = queue_->now();
  f.head_done = 0.0;
  attach(s);
  recompute_component(s);
}

void FlowNetwork::deactivate(StreamId s) {
  FlowState& f = flow(s);
  settle(s, queue_->now());
  detach(s);
  f.active = false;
  f.rate = 0.0;
  ++f.gen;
  f.completion_scheduled = false;
  recompute_component(s);
}

double FlowNetwork::utilization_cap(const FlowState& f) const {
  switch (f.tree->cnp_mode) {
    case CnpMode::SenderGuard:
      return config_.flow.guard_utilization;
    case CnpMode::ReceiverTimer:
      return f.recvs.size() > 1
                 ? config_.flow.receiver_timer_multicast_utilization
                 : config_.flow.receiver_timer_unicast_utilization;
    case CnpMode::Unthrottled:
      return config_.flow.unthrottled_utilization;
  }
  return 1.0;
}

double FlowNetwork::line_rate_floor(const FlowState& f) const {
  // Never empty: a valid spec's source has an out-link.
  double floor = topo_->link(f.links.front()).rate.bytes_per_ns();
  for (LinkId l : f.links) {
    floor = std::min(floor, topo_->link(l).rate.bytes_per_ns());
  }
  return floor;
}

void FlowNetwork::recompute_component(StreamId seed) {
  if (flow_stamp_.size() < flows_.size()) {
    flow_stamp_.resize(flows_.size(), 0);
    flow_member_.resize(flows_.size(), 0);
  }
  const std::uint32_t epoch = ++flow_epoch_;
  members_.clear();
  slots_.clear();
  slot_members_.clear();
  member_slots_.clear();
  heap_.clear();
  const auto fill_of = [](const Slot& k) {
    return std::max(k.cap, 0.0) / static_cast<double>(k.count);
  };
  // The member index of stream `t`, enqueuing it on first sight.
  const auto enqueue = [&](StreamId t) {
    auto& stamp = flow_stamp_[static_cast<std::size_t>(t)];
    auto& index = flow_member_[static_cast<std::size_t>(t)];
    if (stamp != epoch) {
      stamp = epoch;
      index = static_cast<std::int32_t>(members_.size());
      members_.push_back(Member{t});
    }
    return index;
  };

  // Connected component: streams transitively sharing a live link with the
  // seed. The seed itself is included whether or not it is still active (a
  // departure perturbs exactly the flows it used to share links with). A
  // link's active list is exactly the component flows crossing it. A
  // shared link becomes a slot the first time the walk reaches it, and
  // only then are its flows enqueued, so every (link, flow) pair is touched
  // once; the walk lays out both directions of the flow-slot incidence as
  // flat CSR ranges. A link only one flow crosses keeps a constant fill
  // (its line rate) until that flow is assigned, so of a flow's private
  // links only the lowest (rate, link id) can ever be a bottleneck: it
  // enters the heap as the flow's own candidate, and the rest are skipped.
  enqueue(seed);
  std::size_t unassigned = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const FlowState& f = flow(members_[i].stream);
    const auto begin = static_cast<std::int32_t>(member_slots_.size());
    double solo_rate = std::numeric_limits<double>::infinity();
    LinkId solo_link = kInvalidLink;
    if (!f.closed) {
      for (std::size_t j = 0; j < f.links.size(); ++j) {
        if (!f.link_live[j]) continue;
        const LinkId l = f.links[j];
        std::int32_t& slot = link_slot_[static_cast<std::size_t>(l)];
        if (slot < 0) {
          const std::vector<StreamId>& users =
              links_[static_cast<std::size_t>(l)].active;
          if (users.size() <= 1) {
            // An active flow is on the active list of each of its live
            // links; only an inactive seed meets another flow's private
            // link (or an idle one).
            if (f.active) {
              const double rate = topo_->link(l).rate.bytes_per_ns();
              if (rate < solo_rate) {
                solo_rate = rate;
                solo_link = l;
              }
            } else if (!users.empty()) {
              enqueue(users.front());
            }
            continue;
          }
          slot = static_cast<std::int32_t>(slots_.size());
          const auto n = static_cast<std::int32_t>(users.size());
          Slot& k = slots_.emplace_back(
              Slot{topo_->link(l).rate.bytes_per_ns(), 0.0, l, n, n,
                   static_cast<std::int32_t>(slot_members_.size()), 0});
          k.key = fill_of(k);
          heap_.push_back(HeapEntry{k.key, l, slot});
          for (StreamId t : users) slot_members_.push_back(enqueue(t));
        }
        if (f.active) member_slots_.push_back(slot);
      }
    }
    Member& m = members_[i];
    m.slots_begin = begin;
    m.slots_end = static_cast<std::int32_t>(member_slots_.size());
    if (solo_link != kInvalidLink) {
      // A private link's fill, max(rate, 0) / 1, is its rate.
      heap_.push_back(HeapEntry{solo_rate, solo_link,
                                ~static_cast<std::int32_t>(i)});
    }
    if (m.slots_end > begin || solo_link != kInvalidLink) ++unassigned;
  }

  // Progressive-filling max-min. The next bottleneck is the candidate with
  // the lowest (fill, link id), taken from a min-heap keyed lazily. Each
  // slot owns one entry whose key never exceeds the slot's fill: filling
  // only raises a fill, so a changed slot keeps its entry and is re-keyed
  // when that entry reaches the top (a rounding dip below the key pushes a
  // new entry at once). An entry on top whose key equals its fill is
  // therefore the true minimum. Each level assigns that fill to every
  // unassigned flow through the bottleneck and subtracts it from all of the
  // flow's slots. Every flow assigned in one level subtracts the same fill,
  // so the order within a level cannot change a capacity: each slot sees
  // the same subtractions, in the same level order, as a full rescan of
  // every link per level would.
  std::make_heap(heap_.begin(), heap_.end());
  const auto push = [&](Slot& k, double key, std::int32_t idx) {
    k.key = key;
    heap_.push_back(HeapEntry{key, k.link, idx});
    std::push_heap(heap_.begin(), heap_.end());
  };
  std::uint32_t level = 0;
  const auto assign = [&](Member& m, double fill) {
    m.fair = fill;
    --unassigned;
    for (std::int32_t v = m.slots_begin; v < m.slots_end; ++v) {
      const std::int32_t idx = member_slots_[static_cast<std::size_t>(v)];
      Slot& k = slots_[static_cast<std::size_t>(idx)];
      k.cap -= fill;
      --k.count;
      if (k.touched != level) {
        k.touched = level;
        touched_.push_back(idx);
      }
    }
  };
  while (unassigned > 0 && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    touched_.clear();
    if (top.index < 0) {  // a flow's private link
      Member& m = members_[static_cast<std::size_t>(~top.index)];
      if (m.fair >= 0.0) continue;
      ++level;
      assign(m, top.fill);
    } else {
      Slot& b = slots_[static_cast<std::size_t>(top.index)];
      if (b.count <= 0 || top.fill != b.key) continue;  // drained, replaced
      const double fill = fill_of(b);
      if (fill != top.fill) {
        push(b, fill, top.index);
        continue;
      }
      ++level;
      for (std::int32_t u = b.members_begin; u < b.members_begin + b.users;
           ++u) {
        Member& m = members_[static_cast<std::size_t>(slot_members_[u])];
        if (m.fair < 0.0) assign(m, fill);
      }
    }
    for (std::int32_t idx : touched_) {
      Slot& k = slots_[static_cast<std::size_t>(idx)];
      if (k.count <= 0) continue;
      const double now_fill = fill_of(k);
      if (now_fill < k.key) push(k, now_fill, idx);
    }
  }
  for (const Slot& k : slots_) {
    link_slot_[static_cast<std::size_t>(k.link)] = -1;
  }

  // Re-rate the flows whose rate changed, in ascending stream id, so
  // completions are scheduled (and sequence-numbered) in an order that
  // depends only on the component.
  rerated_.clear();
  for (const Member& m : members_) {
    const FlowState& f = flow(m.stream);
    if (!f.active) continue;
    double rate;
    if (m.fair < 0.0) {
      // Every link this flow occupies is dead: the source keeps pacing into
      // the outage at line rate, exactly as the packet engine's pump keeps
      // injecting into a dead port (the bytes are recorded as losses when
      // each chunk retires).
      rate = line_rate_floor(f);
    } else {
      rate = m.fair;
      // Contended: some link started the solve shared, i.e. is a slot.
      if (m.slots_end > m.slots_begin && config_.congestion_control) {
        rate *= utilization_cap(f);
      }
    }
    if (rate != f.rate || !f.completion_scheduled) {
      rerated_.emplace_back(m.stream, rate);
    }
  }
  std::sort(rerated_.begin(), rerated_.end());
  const SimTime now = queue_->now();
  for (const auto& [s, rate] : rerated_) {
    settle(s, now);
    flow(s).rate = rate;
    schedule_completion(s);
  }
}

void FlowNetwork::schedule_completion(StreamId s) {
  FlowState& f = flow(s);
  ++f.gen;
  if (f.rate <= 0.0 || f.pending_head >= f.pending.size()) {
    f.completion_scheduled = false;
    return;
  }
  const PendingChunk& head = f.pending[f.pending_head];
  const double remaining = static_cast<double>(head.bytes) - f.head_done;
  const auto dt = static_cast<SimTime>(std::ceil(remaining / f.rate));
  const SimTime at = queue_->now() + std::max<SimTime>(dt, 0);
  f.completion_scheduled = true;
  queue_->at(at, [this, s, gen = f.gen] {
    FlowState& g = flow(s);
    if (g.closed || g.gen != gen) return;  // stale (rate changed since)
    settle(s, queue_->now());
    complete_head_chunk(s);
  });
}

void FlowNetwork::complete_head_chunk(StreamId s) {
  FlowState& f = flow(s);
  const SimTime now = queue_->now();
  const PendingChunk head = f.pending[f.pending_head];
  f.head_done = 0.0;
  ++f.pending_head;
  if (f.pending_head == f.pending.size()) {
    f.pending.clear();
    f.pending_head = 0;
  }

  // The audited lump: every integer record for this chunk lands here, at one
  // instant, so hop conservation (enqueued == serialized) holds by
  // construction and a chunk that never completes leaves no trace.
  const StreamTree& t = *f.tree;
  if (telem_) {
    for (const StreamTree::Injector& inj : t.injectors) {
      telem_->on_contribute(s, inj.node, head.chunk, head.bytes);
    }
  }
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    const LinkId l = f.links[i];
    const Bytes bytes = head.bytes * f.link_copies[i];
    const std::uint64_t nseg =
        chunk_segments(head.bytes) *
        static_cast<std::uint64_t>(f.link_copies[i]);
    if (f.link_live[i]) {
      LinkAccum& a = links_[static_cast<std::size_t>(l)];
      a.serialized += bytes;
      a.segments += nseg;
      segments_serialized_ += nseg;
      if (telem_) {
        telem_->on_enqueue(l, s, bytes, 0, now);
        telem_->on_serialized(l, s, bytes, 0, now);
      }
    } else {
      // The replication onto the severed subtree died on the wire.
      lost_segments_ += nseg;
      if (telem_) telem_->on_wire_drop(s, bytes);
    }
  }
  if (telem_) {
    // Empty for a multicast.
    for (const StreamTree::Combiner& cb : t.combiners) {
      for (LinkId l : cb.child_links) {
        telem_->on_reduce_absorb(s, l, head.chunk, head.bytes);
      }
      telem_->on_reduce_emit(s, cb.node, head.chunk, head.bytes);
    }
  }

  const Bytes tail = last_segment(head.bytes);
  for (const RecvInfo& ri : f.recvs) {
    if (!ri.live) {
      f.short_delivery = true;
      continue;
    }
    if (telem_) {
      telem_->on_deliver(s, ri.node, head.chunk, head.bytes * ri.paths);
    }
    const SimTime offset =
        f.up_offset + ri.prop_sum +
        static_cast<SimTime>(
            std::ceil(static_cast<double>(tail) * ri.inv_rate_sum));
    DeliveryEvent ev;
    ev.stream = s;
    ev.tag = f.tag;
    ev.receiver = ri.node;
    ev.chunk = head.chunk;
    queue_->at(now + offset, [this, ev] {
      if (on_delivery_) on_delivery_(ev);
    });
  }

  if (f.pending_head == f.pending.size()) {
    deactivate(s);
  } else {
    schedule_completion(s);
  }
}

// ---------------------------------------------------------------------------
// Faults

void FlowNetwork::refresh_live_set(StreamId s) {
  FlowState& f = flow(s);
  if (f.closed) return;
  settle(s, queue_->now());

  // Source-reachable subset of the compiled links over the current topology.
  if (node_stamp_.size() < topo_->node_count()) {
    node_stamp_.resize(topo_->node_count(), 0);
  }
  const StreamTree& t = *f.tree;
  const std::uint32_t epoch = ++node_epoch_;
  std::vector<NodeId> frontier{t.source};
  node_stamp_[static_cast<std::size_t>(t.source)] = epoch;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (LinkId l : t.out_of(*t.find(frontier[i]))) {
      const Link& lk = topo_->link(l);
      if (lk.failed) continue;
      auto& stamp = node_stamp_[static_cast<std::size_t>(lk.dst)];
      if (stamp == epoch) continue;
      stamp = epoch;
      frontier.push_back(lk.dst);
    }
  }
  const auto reached = [&](NodeId n) {
    return node_stamp_[static_cast<std::size_t>(n)] == epoch;
  };

  bool lost_partial = false;
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    const Link& lk = topo_->link(f.links[i]);
    // A forward link is live when its upstream end is reachable and the wire
    // itself is up. A reduce mirror link (not its dst's parent link) hangs
    // off the same duplex pair, so the same test applies to its reverse
    // orientation.
    const bool mirror = t.reduce() && t.find(lk.dst)->parent != f.links[i];
    const NodeId upstream_end = mirror ? lk.dst : lk.src;
    const char live = static_cast<char>(!lk.failed && reached(upstream_end));
    if (live == f.link_live[i]) continue;
    LinkAccum& a = links_[static_cast<std::size_t>(f.links[i])];
    if (f.active) {
      if (live) {
        a.active.push_back(s);
        // Catch the link's integral up with the head chunk's progress so the
        // completion lump matches it (the chunk retires over the full set).
        a.util_integral += f.head_done * f.link_copies[i];
      } else {
        a.active.erase(std::remove(a.active.begin(), a.active.end(), s),
                       a.active.end());
        // The partial fluid on the dead wire is gone.
        a.util_integral -= f.head_done * f.link_copies[i];
        lost_partial = true;
      }
    }
    f.link_live[i] = live;
  }
  for (RecvInfo& ri : f.recvs) ri.live = reached(ri.node);
  if (lost_partial && f.head_done > 0.0) {
    lost_segments_ += chunk_segments(
        std::max<Bytes>(static_cast<Bytes>(f.head_done), 1));
    if (telem_) telem_->on_wire_drop(s, static_cast<Bytes>(f.head_done));
  }
}

void FlowNetwork::on_duplex_failed(LinkId l) {
  const LinkId a = l;
  const LinkId b = topo_->reverse_of(l);
  for (StreamId s = 0; static_cast<StreamId>(flows_.size()) > s; ++s) {
    FlowState& f = flow(s);
    if (f.closed) continue;
    const bool uses =
        std::binary_search(f.links.begin(), f.links.end(), a) ||
        std::binary_search(f.links.begin(), f.links.end(), b);
    if (!uses) continue;
    if (f.tree->reduce()) {
      if (f.frozen) continue;
      // A reduce pipeline cannot run truncated (the pivot would combine
      // short); freeze it and let the recovery pass supersede the stream,
      // exactly as the packet engine's combiners stall on the missing child.
      settle(s, queue_->now());
      if (f.active) {
        if (f.head_done > 0.0) {
          add_fluid(f, -f.head_done);
          lost_segments_ += chunk_segments(
              std::max<Bytes>(static_cast<Bytes>(f.head_done), 1));
          if (telem_) {
            telem_->on_wire_drop(s, static_cast<Bytes>(f.head_done));
          }
          f.head_done = 0.0;
        }
        detach(s);
        f.active = false;
        f.rate = 0.0;
        ++f.gen;
        f.completion_scheduled = false;
        f.frozen = true;
        recompute_component(s);
      } else {
        f.frozen = true;
      }
      continue;
    }
    refresh_live_set(s);
    recompute_component(s);
  }
}

void FlowNetwork::on_duplex_restored(LinkId l) {
  const LinkId a = l;
  const LinkId b = topo_->reverse_of(l);
  for (StreamId s = 0; static_cast<StreamId>(flows_.size()) > s; ++s) {
    FlowState& f = flow(s);
    if (f.closed || f.tree->reduce()) continue;  // reduce awaits supersede
    const bool uses =
        std::binary_search(f.links.begin(), f.links.end(), a) ||
        std::binary_search(f.links.begin(), f.links.end(), b);
    if (!uses) continue;
    refresh_live_set(s);
    recompute_component(s);
  }
}

// ---------------------------------------------------------------------------
// Introspection

bool FlowNetwork::stream_uses_link(StreamId s, LinkId l) const {
  const FlowState& f = flow(s);
  if (f.closed) return false;
  const std::vector<LinkId>& out = f.tree->out_links;
  return std::find(out.begin(), out.end(), l) != out.end();
}

StreamDiagnostic FlowNetwork::stream_diagnostic(StreamId s) const {
  const FlowState& f = flow(s);
  StreamDiagnostic d;
  d.stream = s;
  d.tag = f.tag;
  d.closed = f.closed;
  d.pump_blocked = f.frozen;
  d.pump_scheduled = f.completion_scheduled;
  d.pending_chunks = f.pending.size() - f.pending_head;
  for (std::size_t i = f.pending_head; i < f.pending.size(); ++i) {
    d.bytes_pending_injection += f.pending[i].bytes;
  }
  d.bytes_pending_injection -= static_cast<Bytes>(f.head_done);
  d.incomplete_deliveries =
      d.pending_chunks * f.recvs.size() + (f.short_delivery ? 1 : 0);
  return d;
}

}  // namespace peel
