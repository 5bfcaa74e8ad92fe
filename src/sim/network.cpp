#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace peel {

Network::Network(const Topology& topo, const SimConfig& config, EventQueue& queue)
    : Network(topo, config, queue,
              std::make_shared<const ShardPlan>(single_domain_plan(topo)), 0) {}

Network::Network(const Topology& topo, const SimConfig& config, EventQueue& queue,
                 std::shared_ptr<const ShardPlan> plan, std::int32_t domain)
    : topo_(&topo),
      config_(config),
      queue_(&queue),
      rng_(config.seed ^ 0x5eedf00dULL),
      plan_(std::move(plan)),
      domain_(domain),
      link_slot_(plan_->link_slot.data()),
      rx_slot_(plan_->rx_slot.data()),
      node_slot_(plan_->node_slot.data()),
      links_(static_cast<std::size_t>(
          plan_->domain_link_slots[static_cast<std::size_t>(domain)])),
      nodes_(static_cast<std::size_t>(
          plan_->domain_nodes[static_cast<std::size_t>(domain)])) {
  config_.validate();
  pause_threshold_ = static_cast<Bytes>(
      static_cast<double>(config_.switch_buffer_bytes) *
      (1.0 - config_.pfc_pause_free_fraction));
  resume_threshold_ =
      std::max<Bytes>(0, pause_threshold_ - config_.pfc_hysteresis);
  queue_->bind_sink(this);
  if (config_.telemetry.enabled) {
    telem_ = std::make_unique<Telemetry>(config_.telemetry, topo);
    rearm_sampler();
  }
}

Network::~Network() {
  if (queue_->sink() == this) queue_->bind_sink(nullptr);
}

void Network::on_sim_event(const SimEvent& ev) {
  switch (ev.kind) {
    case SimEventKind::Pump:
      if (ev.flag) {
        pump_woken(ev.a, ev.b);
      } else {
        pump(ev.a, ev.b);
      }
      return;
    case SimEventKind::FinishTx:
      finish_tx(ev.a, links_[static_cast<std::size_t>(ev.b)], ev.epoch);
      return;
    case SimEventKind::Arrive:
      arrive(ev.a, Segment{ev.b, ev.c, ev.d, kInvalidLink, ev.e, ev.flag},
             ev.epoch);
      return;
    case SimEventKind::CnpRate: {
      auto& st = streams_[static_cast<std::size_t>(ev.a)];
      if (st.closed) return;
      auto& inj = st.injectors[static_cast<std::size_t>(ev.b)];
      if (inj.local) inj.cc.on_cnp(queue_->now());
      return;
    }
    case SimEventKind::ReduceEmit:
      reduce_emit(ev.a, ev.b, ev.c, ev.d, ev.flag);
      return;
    case SimEventKind::SampleTick:
      sample_tick();
      return;
    // Cross-domain PFC frames (sharded engine): the pause decision — and its
    // telemetry — happened on the buffer-owning (mirror) side when the frame
    // was posted; here the link's owning domain applies the state change to
    // the real serializer. The epoch guard drops frames that were in flight
    // when the link failed: the failure already cleared pause state on both
    // sides, and a stale pause must never wedge a repaired link.
    // A frame only ever crosses domains, so the link's destination, and
    // with it the node's paused_in count, is another domain's.
    case SimEventKind::PfcPause: {
      auto& L = out_state(ev.a);
      if (L.fail_epoch == ev.epoch) L.pfc_paused = true;
      return;
    }
    case SimEventKind::PfcResume: {
      auto& L = out_state(ev.a);
      if (L.fail_epoch == ev.epoch && L.pfc_paused) {
        L.pfc_paused = false;
        if (L.blocked) try_start(ev.a, L);
      }
      return;
    }
    case SimEventKind::Deliver:
      throw std::logic_error(
          "Network: a Deliver event belongs on the sharded engine's control "
          "queue");
    case SimEventKind::None:
      break;
  }
  throw std::logic_error("Network: unknown SimEvent kind");
}

void Network::post_pfc(SimEventKind kind, LinkId ingress) {
  if (xhook_ == nullptr) return;
  SimEvent ev;
  ev.kind = kind;
  ev.a = ingress;
  ev.epoch = rx_state(ingress).fail_epoch;
  // The frame travels back to the link's sender: one propagation delay,
  // which is >= the shard lookahead for every cross-domain link.
  xhook_->post(queue_->now() + topo_->link(ingress).propagation, ev);
}

void Network::sample_tick() {
  telem_->sample(queue_->now());
  // Only stay alive while the simulation itself has work left; the sampler
  // must never be the event that keeps the queue from draining. send_chunk
  // re-arms it when new work shows up after a lapse.
  if (queue_->pending() > 0) {
    queue_->after(config_.telemetry.sample_interval,
                  SimEvent{SimEventKind::SampleTick});
  } else {
    sampler_armed_ = false;
  }
}

void Network::rearm_sampler() {
  if (telem_ && config_.telemetry.sample_interval > 0 && !sampler_armed_) {
    sampler_armed_ = true;
    queue_->after(config_.telemetry.sample_interval,
                  SimEvent{SimEventKind::SampleTick});
  }
}

StreamDiagnostic Network::stream_diagnostic(StreamId s) const {
  const auto& st = streams_[static_cast<std::size_t>(s)];
  StreamDiagnostic d;
  d.stream = s;
  d.tag = st.tag;
  d.closed = st.closed;
  for (std::size_t k = 0; k < st.injectors.size(); ++k) {
    const Injector& inj = st.injectors[k];
    if (!st.closed && inj.blocked_at >= 0 &&
        is_woken(inj, node_state(st.tree->injectors[k].node))) {
      d.pump_scheduled = true;  // as the release set it
    } else {
      d.pump_blocked |= inj.pump_blocked;
      d.pump_scheduled |= inj.pump_scheduled;
    }
    for (std::size_t i = inj.pending_head; i < inj.pending.size(); ++i) {
      ++d.pending_chunks;
      d.bytes_pending_injection +=
          inj.pending[i].bytes - inj.pending[i].injected;
    }
  }
  for (const auto& prog : st.progress) {
    const std::span<const Bytes> targets = st.chunks->targets();
    for (std::size_t c = 0; c < targets.size(); ++c) {
      const Bytes want = targets[c];
      if (want <= 0) continue;
      const Bytes got = c < prog.size() ? prog[c] : 0;
      if (got < want) ++d.incomplete_deliveries;
    }
  }
  return d;
}

StreamId Network::open_stream(StreamSpec spec) {
  const std::shared_ptr<const StreamTree> tree = compile_stream(*topo_, spec);
  const auto id = static_cast<StreamId>(streams_.size());
  open_replica(id, tree, own_chunks_.emplace_back(), tree->receivers, {});
  return id;
}

void Network::open_replica(StreamId id, std::shared_ptr<const StreamTree> tree,
                           ChunkTable& chunks,
                           std::span<const NodeId> receivers,
                           const std::vector<std::uint8_t>& injector_local) {
  const StreamTree& t = *tree;
  if (!injector_local.empty() && injector_local.size() != t.injectors.size()) {
    throw std::invalid_argument("injector_local mask must match injectors");
  }
  if (id < static_cast<StreamId>(streams_.size())) {
    throw std::invalid_argument("replica id must be past every opened id");
  }
  StreamState st;
  st.tag = t.tag;
  for (std::size_t i = 0; i < t.injectors.size(); ++i) {
    const StreamTree::Injector& ti = t.injectors[i];
    Injector inj;
    inj.cc = Dcqcn(config_.dcqcn, topo_->link(ti.pace_link).rate.bytes_per_ns(),
                   t.cnp_mode, config_.sender_guard_interval);
    inj.local = injector_local.empty() || injector_local[i] != 0;
    st.injectors.push_back(std::move(inj));
  }

  // `receivers` is a subsequence of t.receivers: one merged walk finds each
  // one's tree index. A receiver off the tree keeps its progress row (the
  // diagnostic reports it) but gets no slot, as no segment arrives there.
  st.recv_slot.assign(t.nodes.size(), -1);
  std::size_t j = 0;
  for (std::size_t i = 0; i < receivers.size(); ++i, ++j) {
    while (j < t.receivers.size() && t.receivers[j] != receivers[i]) ++j;
    if (j == t.receivers.size()) {
      throw std::invalid_argument(
          "replica receivers must be a subsequence of tree->receivers");
    }
    if (t.receiver_at[j] >= 0) {
      st.recv_slot[static_cast<std::size_t>(t.receiver_at[j])] =
          static_cast<std::int32_t>(i);
    }
  }
  st.progress.resize(receivers.size());
  st.last_cnp.assign(receivers.size(), kMinCnp);
  st.combiners.resize(t.combiners.size());

  if (telem_) telem_->on_stream_open(id, t, receivers);
  st.tree = std::move(tree);
  st.chunks = &chunks;
  // The ids this domain skips stay default: no tables.
  streams_.resize(static_cast<std::size_t>(id));
  streams_.push_back(std::move(st));
}

void Network::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  streams_[static_cast<std::size_t>(stream)].chunks->send(chunk_index, bytes);
  queue_chunk(stream, chunk_index, bytes);
}

void Network::queue_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (telem_) telem_->on_chunk_target(stream, chunk_index, bytes);
  // Every (engine-local) injector queues the chunk: a multicast's source
  // sends it once; each reduce contributor injects its own copy, and the
  // tree combines them on the way to the root.
  for (std::size_t i = 0; i < st.injectors.size(); ++i) {
    Injector& inj = st.injectors[i];
    if (!inj.local) continue;
    inj.pending.push_back(PendingChunk{chunk_index, bytes, 0});
    if (!inj.pump_scheduled) {
      if (inj.blocked_at >= 0) {
        NodeState& N = node_state(st.tree->injectors[i].node);
        if (is_woken(inj, N)) continue;  // its wake is its pump
        N.dirty = true;  // a parked injector's pump is in flight
      }
      inj.pump_scheduled = true;
      queue_->after(0, SimEvent{SimEventKind::Pump, false, stream,
                                static_cast<std::int32_t>(i)});
    }
  }
  // A lapsed telemetry sampler (the event queue momentarily drained at a
  // tick) restarts with the new work instead of staying dead for the rest
  // of the run.
  rearm_sampler();
}

std::vector<int> Network::cancel_unsent_chunks(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  std::vector<int> cancelled;
  if (st.closed) return cancelled;
  if (st.tree->reduce()) {
    throw std::logic_error(
        "cancel_unsent_chunks: in-network reduce streams cannot be cancelled");
  }
  // Keep the chunk currently mid-injection (if any); drop the rest.
  Injector& inj = st.injectors.front();
  std::size_t keep = inj.pending_head;
  if (keep < inj.pending.size() && inj.pending[keep].injected > 0) ++keep;
  for (std::size_t i = keep; i < inj.pending.size(); ++i) {
    cancelled.push_back(inj.pending[i].chunk);
    st.chunks->cancel(inj.pending[i].chunk);
    if (telem_) telem_->on_chunk_target(stream, inj.pending[i].chunk, 0);
  }
  inj.pending.resize(keep);
  if (inj.blocked_at >= 0 && keep == inj.pending_head) {
    node_state(st.tree->injectors.front().node).dirty = true;
  }
  return cancelled;
}

void Network::close_stream(StreamId stream) {
  close_replica(stream);
  streams_[static_cast<std::size_t>(stream)].chunks->close();
}

void Network::close_replica(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (telem_ && !st.closed) {
    // Computed before the tree/progress are released below.
    telem_->on_stream_close(stream,
                            stream_diagnostic(stream).incomplete_deliveries == 0);
  }
  if (!st.closed) {
    // A parked injector's entry stays in its node's log, so the log is
    // dirty. A woken one keeps the flags its release set.
    for (std::size_t i = 0; i < st.injectors.size(); ++i) {
      Injector& inj = st.injectors[i];
      if (inj.blocked_at < 0) continue;
      NodeState& N = node_state(st.tree->injectors[i].node);
      if (is_woken(inj, N)) {
        inj.pump_scheduled = true;
        inj.pump_blocked = false;
      }
      N.dirty = true;
    }
  }
  st.closed = true;
  // Release, don't just clear: fault-heavy runs open one recovery stream per
  // (collective, origin) per pass, and clear() would retain each dead
  // stream's tables forever.
  // NB: `v = {}` is initializer-list assignment and keeps capacity, exactly
  // like clear(); swapping with a default-constructed temporary frees it.
  auto release = [](auto& c) { std::decay_t<decltype(c)>{}.swap(c); };
  st.tree.reset();
  release(st.recv_slot);
  release(st.progress);
  release(st.last_cnp);
  // stream_cc still reads the first injector after close; the rest go.
  if (st.injectors.size() > 1) {
    st.injectors.erase(st.injectors.begin() + 1, st.injectors.end());
    st.injectors.shrink_to_fit();
  }
  if (!st.injectors.empty()) release(st.injectors.front().pending);
  release(st.combiners);
  // Whatever this stream still held in combiner SRAM is discarded with it.
  reduce_held_ -= st.reduce_held;
  st.reduce_held = 0;
}

void Network::on_duplex_failed(LinkId l) {
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    const Link& lk = topo_->link(dir);
    const bool sends = owns(lk.src);
    const bool receives = owns(lk.dst);
    if (!sends && !receives) continue;
    auto& L = sends ? out_state(dir) : rx_state(dir);
    // Kill in-flight traffic even across a later repair: segments carry the
    // epoch their serialization started under, and arrive() drops stale ones.
    // Both sides of a crossing link bump their own copy.
    ++L.fail_epoch;
    if (sends) {
      // The segment mid-serialization (if any) is lost on the wire; its
      // arrival event will see the stale epoch and drop it. Everything
      // still queued behind it is lost here.
      std::size_t first_dropped = L.head + (L.busy ? 1 : 0);
      for (std::size_t i = first_dropped; i < L.q.size(); ++i) {
        const Segment& seg = L.q[i];
        L.queued -= seg.bytes;
        release_buffer(lk.src, seg.ingress, seg.bytes);
        ++lost_segments_;
        if (telem_) {
          telem_->on_queue_drop(dir, seg.stream, seg.bytes, L.queued,
                                queue_->now());
        }
      }
      L.q.resize(first_dropped);
      if (!L.busy) {
        L.q.clear();
        L.head = 0;
      }
      L.blocked = false;
    }
    // The pause dies with the link: close its telemetry span here, or it
    // would run on through the outage until some later resume. (A sharded
    // domain that only applied the remote pause frame never opened one, so
    // on_unpause is a no-op there.)
    if (L.pfc_paused && telem_) telem_->on_unpause(dir, queue_->now());
    if (receives) {
      set_rx_paused(dir, false);
    } else {
      L.pfc_paused = false;
    }
  }
}

void Network::on_duplex_restored(LinkId l) {
  ++duplex_repairs_;
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    if (!owns(topo_->link(dir).src)) continue;
    // on_duplex_failed left the queue truncated and PFC state cleared; a
    // still-busy head belongs to the outage and finish_tx will retire it.
    // New segments start flowing the moment something enqueues.
    auto& L = out_state(dir);
    if (!L.busy) try_start(dir, L);
  }
}

void Network::pump(StreamId stream, std::int32_t injector) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) return;
  Injector& inj = st.injectors[static_cast<std::size_t>(injector)];
  const StreamTree::Injector& ti =
      st.tree->injectors[static_cast<std::size_t>(injector)];
  inj.pump_scheduled = false;

  while (inj.pending_head < inj.pending.size()) {
    const SimTime now = queue_->now();
    // Backpressure: a paused injector (its node's buffers full, e.g. under
    // PFC from downstream) stops injecting; release_buffer re-arms the pump.
    NodeState& N = node_state(ti.node);
    if (N.buffered > pause_threshold_) {
      inj.pump_blocked = true;
      park(N, BlockedPump{stream, injector}, inj);
      return;
    }
    if (inj.pace_next > now) {
      inj.pump_scheduled = true;
      queue_->at(inj.pace_next,
                 SimEvent{SimEventKind::Pump, false, stream, injector});
      return;
    }
    const double rate = config_.congestion_control ? inj.cc.rate(now)
                                                   : inj.cc.line_rate();
    auto& pc = inj.pending[inj.pending_head];
    const Bytes seg_bytes =
        std::min<Bytes>(config_.segment_bytes, pc.bytes - pc.injected);
    Segment seg{stream, pc.chunk, static_cast<std::int32_t>(seg_bytes),
                kInvalidLink, -1, false};
    if (telem_) telem_->on_contribute(stream, ti.node, pc.chunk, seg_bytes);
    if (ti.up_link != kInvalidLink) {
      seg.at = st.tree->nodes[static_cast<std::size_t>(ti.at)].up;
      enqueue_segment(ti.up_link, seg);
    } else {
      replicate(*st.tree, ti.at, seg);
    }
    pc.injected += seg_bytes;
    if (pc.injected == pc.bytes) {
      ++inj.pending_head;
      if (inj.pending_head == inj.pending.size()) {
        inj.pending.clear();
        inj.pending_head = 0;
      }
    }
    const double tx_ns = static_cast<double>(seg_bytes) / rate;
    inj.pace_next =
        std::max(inj.pace_next, now) + static_cast<SimTime>(std::ceil(tx_ns));
  }
}

void Network::replicate(const StreamTree& t, std::int32_t at, Segment seg) {
  const StreamTree::Node& tn = t.nodes[static_cast<std::size_t>(at)];
  for (std::int32_t i = tn.out_begin; i < tn.out_end; ++i) {
    seg.at = t.out_dst[static_cast<std::size_t>(i)];
    enqueue_segment(t.out_links[static_cast<std::size_t>(i)], seg);
  }
}

void Network::enqueue_segment(LinkId l, Segment seg) {
  if (topo_->link(l).failed) {
    ++lost_segments_;  // forwarding entry points at a dead port
    if (telem_) telem_->on_ingress_drop(seg.stream, seg.bytes);
    return;
  }
  auto& L = out_state(l);
  auto& N = node_state(topo_->link(l).src);

  // RED/ECN marking against the pre-enqueue egress depth. The kmax > kmin
  // guard keeps the step-ECN configuration (kmax == kmin: mark with pmax
  // certainty at the threshold) out of the divide.
  if (!seg.marked && config_.congestion_control) {
    if (L.queued >= config_.ecn_kmax) {
      seg.marked = true;
    } else if (L.queued > config_.ecn_kmin &&
               config_.ecn_kmax > config_.ecn_kmin) {
      const double p = config_.ecn_pmax *
                       static_cast<double>(L.queued - config_.ecn_kmin) /
                       static_cast<double>(config_.ecn_kmax - config_.ecn_kmin);
      if (rng_.next_double() < p) seg.marked = true;
    }
    if (seg.marked) {
      ++marked_segments_;
      if (telem_) telem_->on_ecn_mark(l);
    }
  }

  L.q.push_back(seg);
  L.queued += seg.bytes;
  L.queue_peak = std::max(L.queue_peak, L.queued);
  N.buffered += seg.bytes;
  if (telem_) {
    telem_->on_enqueue(l, seg.stream, seg.bytes, L.queued, queue_->now());
    telem_->on_node_buffer(topo_->link(l).src, N.buffered);
  }
  if (seg.ingress != kInvalidLink) {
    auto& ingress_link = rx_state(seg.ingress);
    ingress_link.ingress_held += seg.bytes;
    // PFC: when the shared buffer crosses the stop threshold, pause the
    // ingress port that keeps contributing.
    if (N.buffered > pause_threshold_ && !ingress_link.pfc_paused) {
      set_rx_paused(seg.ingress, true);
      ++pfc_pauses_;
      if (telem_) telem_->on_pause(seg.ingress, queue_->now());
      // Sharded engine: if another domain owns the ingress link's
      // serializer, this flip only touched the local mirror — forward the
      // pause frame to the owner.
      post_pfc(SimEventKind::PfcPause, seg.ingress);
    }
  }
  if (!L.busy) try_start(l, L);
}

void Network::try_start(LinkId l, LinkState& L) {
  if (L.busy || L.head >= L.q.size()) return;
  const Link& lk = topo_->link(l);
  if (L.pfc_paused) {
    L.blocked = true;  // PFC: downstream asked us to hold off
    return;
  }
  L.blocked = false;
  L.busy = true;
  const Segment& seg = L.q[L.head];
  const SimTime end = queue_->now() + lk.rate.tx_time(seg.bytes);
  // Snapshot the fail epoch at serialization start: a failure at any point
  // before arrival (mid-serialization or mid-propagation) must lose the
  // segment, repair or no repair.
  // The event also carries the link's slot: FinishTx never leaves this
  // domain, and its handler then needs no lookup.
  const auto slot = static_cast<std::int32_t>(&L - links_.data());
  queue_->at(end, SimEvent{SimEventKind::FinishTx, false, l, slot, 0, 0, 0,
                           L.fail_epoch});
}

void Network::finish_tx(LinkId l, LinkState& L, std::uint32_t fail_epoch) {
  const Link& lk = topo_->link(l);
  const Segment seg = L.q[L.head];
  ++L.head;
  if (L.head == L.q.size() || L.head > 1024) {
    L.q.erase(L.q.begin(), L.q.begin() + static_cast<std::ptrdiff_t>(L.head));
    L.head = 0;
  }
  L.queued -= seg.bytes;
  L.serialized += seg.bytes;
  total_bytes_ += seg.bytes;
  ++segments_serialized_;
  L.busy = false;
  if (telem_) {
    telem_->on_serialized(l, seg.stream, seg.bytes, L.queued, queue_->now());
  }

  release_buffer(lk.src, seg.ingress, seg.bytes);

  post_event(queue_->now() + lk.propagation,
             SimEvent{SimEventKind::Arrive, seg.marked, l, seg.stream,
                      seg.chunk, seg.bytes, seg.at, fail_epoch});
  try_start(l, L);
}

void Network::set_rx_paused(LinkId l, bool paused) {
  auto& L = rx_state(l);
  if (L.pfc_paused == paused) return;
  L.pfc_paused = paused;
  node_state(topo_->link(l).dst).paused_in += paused ? 1 : -1;
}

void Network::unpause(LinkId l) {
  auto& L = rx_state(l);
  if (!L.pfc_paused) return;
  set_rx_paused(l, false);
  if (telem_) telem_->on_unpause(l, queue_->now());
  // Only a serializer ever blocks, so a blocked record is this domain's own.
  if (L.blocked) try_start(l, L);
  post_pfc(SimEventKind::PfcResume, l);
}

void Network::release_buffer(NodeId n, LinkId ingress, Bytes bytes) {
  auto& N = node_state(n);
  N.buffered -= bytes;
  if (ingress != kInvalidLink) {
    Bytes& held = rx_state(ingress).ingress_held;
    if (held <= 0) {
      throw std::logic_error("release_buffer: untracked ingress");
    }
    held -= bytes;
    if (held <= 0) {
      // This ingress no longer holds buffer here; resuming it regardless of
      // the total keeps independent directions from deadlocking each other.
      held = 0;
      unpause(ingress);
    }
  }
  if (N.buffered > resume_threshold_) return;
  // unpause() is a no-op on a running link, so the walk matters only while
  // some in-link is paused.
  if (N.paused_in > 0) {
    for (LinkId in : topo_->in_links(n)) unpause(in);
  }
  // Re-arm the injector pumps parked on this node's buffer: one event wakes
  // them all, in the order they blocked. The batch is the node's next
  // window, [woken_hi, end).
  const std::int64_t begin = N.woken_hi;
  std::int64_t end = N.log_end();
  if (begin == end) return;  // nothing parked
  if (N.dirty) {
    // Walk the list: skip closed streams, injectors whose pump is already in
    // flight and repeat entries (the first keeps its place), flag the rest
    // as woken and pack them in place. (This loop only flags, so the list
    // cannot change under it.)
    std::int64_t w = begin;
    for (std::int64_t p = begin; p < end; ++p) {
      const BlockedPump bp = N.entry(p);
      auto& st = streams_[static_cast<std::size_t>(bp.stream)];
      if (st.closed) continue;
      Injector& inj = st.injectors[static_cast<std::size_t>(bp.injector)];
      inj.pump_blocked = false;
      inj.blocked_at = -1;
      if (!inj.pump_scheduled) {
        inj.pump_scheduled = true;
        N.blocked[static_cast<std::size_t>(w++ - N.blocked_base)] = bp;
      }
    }
    N.blocked.resize(static_cast<std::size_t>(w - N.blocked_base));
    compact(N);
    if (w == begin) return;  // nothing to wake
    end = w;
  }
  // A clean list needs no walk: every parked injector is open, has
  // something pending and has no pump in flight, so the walk would wake
  // each one, in list order. The list itself becomes the window, and
  // is_woken reads their flags as the walk would have set them.
  N.woken_hi = end;
  queue_->after(0, SimEvent{SimEventKind::Pump, true, n,
                            static_cast<std::int32_t>(end - begin)});
}

void Network::park(NodeState& N, const BlockedPump& bp, Injector& inj) {
  inj.blocked_at = N.log_end();
  N.blocked.push_back(bp);
}

void Network::refile(NodeState& N, BlockedPump bp) {
  auto& st = streams_[static_cast<std::size_t>(bp.stream)];
  if (st.closed) return;
  Injector& inj = st.injectors[static_cast<std::size_t>(bp.injector)];
  inj.pump_scheduled = false;
  inj.blocked_at = -1;
  inj.pump_blocked = inj.pending_head < inj.pending.size();
  if (inj.pump_blocked) park(N, bp, inj);
}

void Network::compact(NodeState& N) {
  const auto spent = static_cast<std::size_t>(N.woken_lo - N.blocked_base);
  if (spent == N.blocked.size()) {
    N.blocked.clear();
  } else if (spent >= 64 && 2 * spent >= N.blocked.size()) {
    N.blocked.erase(N.blocked.begin(),
                    N.blocked.begin() + static_cast<std::ptrdiff_t>(spent));
  } else {
    return;
  }
  N.blocked_base = N.woken_lo;
}

bool Network::wake(NodeState& N, BlockedPump bp) {
  auto& st = streams_[static_cast<std::size_t>(bp.stream)];
  if (!st.closed) {
    Injector& inj = st.injectors[static_cast<std::size_t>(bp.injector)];
    inj.pump_blocked = false;  // what the release's walk did to it
    inj.blocked_at = -1;
    pump(bp.stream, bp.injector);
  }
  return N.buffered > pause_threshold_;
}

void Network::pump_woken(NodeId n, std::int32_t count) {
  NodeState& N = node_state(n);
  const std::int64_t hi = N.woken_lo + count;
  // Nothing parked since the release: no later window, no new list entry.
  const bool quiet = N.log_end() == hi;
  std::int64_t p = N.woken_lo;
  while (p < hi) {
    if (wake(N, N.entry(p++))) break;
  }
  std::int64_t lo = hi;
  if (p < hi && quiet && !N.dirty) {
    // The rest would re-block in order behind anything parked since the
    // release, and nothing was but the injector just pumped (only the last
    // pump can block: that is what ended the loop). Each of the rest is
    // open, has something pending and still holds the flags it parked
    // with, so it stays where it is; the pumped one goes back into the slot
    // it just left, in front of them.
    lo = p;
    if (N.log_end() > hi) {
      const BlockedPump bp = N.blocked.back();
      N.blocked.pop_back();
      lo = p - 1;
      streams_[static_cast<std::size_t>(bp.stream)]
          .injectors[static_cast<std::size_t>(bp.injector)]
          .blocked_at = lo;
    }
    N.woken_hi = lo;
  } else {
    for (; p < hi; ++p) refile(N, N.entry(p));
    // What this wake parked is all the list holds, and each entry is an
    // injector pump() or refile() just parked.
    if (quiet) N.dirty = false;
  }
  N.woken_lo = lo;
  compact(N);
}

void Network::arrive(LinkId l, Segment seg, std::uint32_t fail_epoch) {
  if (topo_->link(l).failed || rx_state(l).fail_epoch != fail_epoch) {
    // Either the link is down right now, or it died (and was possibly
    // repaired) after this segment started serializing — lost on the wire.
    ++lost_segments_;
    if (telem_) telem_->on_wire_drop(seg.stream, seg.bytes);
    return;
  }
  auto& st = streams_[static_cast<std::size_t>(seg.stream)];
  if (st.closed) return;
  const StreamTree& t = *st.tree;
  const StreamTree::Node& tn = t.nodes[static_cast<std::size_t>(seg.at)];

  // In-network reduction: an arrival at an interior node over one of its
  // mirrored child links is an upstream contribution — absorb into combiner
  // SRAM instead of replicating; reduce_absorb forwards the combined
  // frontier once all expected children have delivered it. An arrival at
  // the same node over its down in-link (never a child: the mirror has no
  // 2-cycles) is the multicast passing through and falls through to the
  // ordinary replicate path.
  if (tn.combiner >= 0) {
    const auto& kids =
        t.combiners[static_cast<std::size_t>(tn.combiner)].child_links;
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(kids.begin(), kids.end(), l) - kids.begin());
    if (slot < kids.size() && kids[slot] == l) {
      reduce_absorb(seg.stream, tn.combiner, slot, seg);
      return;
    }
  }

  seg.ingress = l;  // buffer occupancy downstream is charged to this port
  replicate(t, seg.at, seg);

  const NodeId n = tn.node;
  const std::int32_t ri = st.recv_slot[static_cast<std::size_t>(seg.at)];
  if (ri >= 0) {
    auto& prog = st.progress[static_cast<std::size_t>(ri)];
    const auto ci = static_cast<std::size_t>(seg.chunk);
    if (prog.size() <= ci) prog.resize(ci + 1, 0);
    Bytes& got = prog[ci];
    got += seg.bytes;
    if (telem_) telem_->on_deliver(seg.stream, n, seg.chunk, seg.bytes);
    if (seg.marked && config_.congestion_control) maybe_cnp(seg.stream, ri, n);
    const Bytes want = st.chunks->target(ci);
    if (want > 0 && got >= want) {
      if (on_delivery_) {
        on_delivery_(DeliveryEvent{seg.stream, st.tag, n, seg.chunk});
      }
    }
  }
}

void Network::reduce_absorb(StreamId s, std::int32_t combiner,
                            std::size_t slot, const Segment& seg) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  ReduceCombiner& cb = st.combiners[static_cast<std::size_t>(combiner)];
  const StreamTree::Combiner& shape =
      st.tree->combiners[static_cast<std::size_t>(combiner)];
  const auto chunk = static_cast<std::size_t>(seg.chunk);
  if (cb.child_bytes.size() <= chunk) {
    cb.child_bytes.resize(chunk + 1);
    cb.out_progress.resize(chunk + 1, 0);
  }
  auto& row = cb.child_bytes[chunk];
  if (row.empty()) row.assign(shape.child_links.size(), 0);
  row[slot] += seg.bytes;
  st.reduce_held += seg.bytes;
  reduce_held_ += seg.bytes;
  reduce_held_peak_ = std::max(reduce_held_peak_, reduce_held_);
  if (telem_) {
    telem_->on_reduce_absorb(s, shape.child_links[slot], seg.chunk, seg.bytes);
  }

  // A chunk's bytes leave the combiner at the pace of its slowest child;
  // anything a faster sibling is ahead by stays in SRAM.
  Bytes frontier = row[0];
  for (std::size_t i = 1; i < row.size(); ++i) {
    frontier = std::min(frontier, row[i]);
  }
  const Bytes delta = frontier - cb.out_progress[chunk];
  if (delta <= 0) return;
  cb.out_progress[chunk] = frontier;
  const Bytes freed = delta * static_cast<Bytes>(row.size());
  st.reduce_held -= freed;
  reduce_held_ -= freed;
  if (telem_) telem_->on_reduce_emit(s, shape.node, seg.chunk, delta);

  // The combined bytes re-enter the fabric one ALU latency later (ReduceEmit
  // fires on this domain's own queue — the combiner and the serializer it
  // emits on always share a domain).
  queue_->after(config_.reduce_combine_latency,
                SimEvent{SimEventKind::ReduceEmit, seg.marked, s, combiner,
                         seg.chunk, static_cast<std::int32_t>(delta)});
}

void Network::reduce_emit(StreamId s, std::int32_t combiner,
                          std::int32_t chunk, Bytes bytes, bool marked) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  if (st.closed) return;
  const StreamTree::Combiner& cb =
      st.tree->combiners[static_cast<std::size_t>(combiner)];
  // ingress = kInvalidLink: combined segments come out of combiner SRAM
  // (tracked by the reduce_held gauge), not an ingress queue, so they are
  // deliberately outside per-ingress PFC accounting — pausing the fast
  // children of a slow combiner is exactly the fan-in deadlock the SRAM
  // model exists to avoid.
  Segment seg{s, chunk, static_cast<std::int32_t>(bytes), kInvalidLink, -1,
              marked};
  if (cb.up_link != kInvalidLink) {
    seg.at = st.tree->nodes[static_cast<std::size_t>(cb.at)].up;
    enqueue_segment(cb.up_link, seg);
    return;
  }
  // Pivot: the fully combined bytes turn around and launch the forward
  // multicast down to every member.
  replicate(*st.tree, cb.at, seg);
}

void Network::maybe_cnp(StreamId s, std::int32_t recv_idx, NodeId receiver) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  const SimTime now = queue_->now();
  if (st.tree->cnp_mode == CnpMode::ReceiverTimer) {
    SimTime& last = st.last_cnp[static_cast<std::size_t>(recv_idx)];
    // kMinCnp is far enough in the past that a fresh receiver always passes.
    if (now - last < config_.receiver_cnp_interval) return;
    last = now;
  }
  if (telem_) telem_->on_cnp(s, receiver, now);
  // One CNP per injector: a multicast's source gets one; on a reduce stream
  // an ECN mark at the root fans out into a CNP per contributor — the
  // many-to-one twin of the multicast CNP implosion the guard timer
  // (CnpMode::SenderGuard) coalesces at each injector.
  const SimTime arrival = now + config_.cnp_delay;
  for (std::size_t i = 0; i < st.injectors.size(); ++i) {
    const SimEvent ev{SimEventKind::CnpRate, false, s,
                      static_cast<std::int32_t>(i)};
    // The sharded engine holds the CNP and admits it at the mailbox merge,
    // the first point that knows its arrival order at the injector.
    if (xhook_ != nullptr && xhook_->post(arrival, ev)) continue;
    admit_cnp(arrival, queue_->reserve_seq(), ev);
  }
}

void Network::admit_cnp(SimTime t, std::uint64_t seq, const SimEvent& ev) {
  auto& st = streams_[static_cast<std::size_t>(ev.a)];
  if (!st.closed &&
      !st.injectors[static_cast<std::size_t>(ev.b)].cc.admit_cnp(t)) {
    queue_->skip(t, seq);
    return;
  }
  queue_->at(t, seq, ev);
}

}  // namespace peel
