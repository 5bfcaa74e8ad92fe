#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace peel {

Network::Network(const Topology& topo, const SimConfig& config, EventQueue& queue)
    : topo_(&topo),
      config_(config),
      queue_(&queue),
      rng_(config.seed ^ 0x5eedf00dULL),
      links_(topo.link_count()),
      nodes_(topo.node_count()),
      blocked_pumps_(topo.node_count()) {
  config_.validate();
  pause_threshold_ = static_cast<Bytes>(
      static_cast<double>(config_.switch_buffer_bytes) *
      (1.0 - config_.pfc_pause_free_fraction));
  resume_threshold_ =
      std::max<Bytes>(0, pause_threshold_ - config_.pfc_hysteresis);
  in_slot_of_link_.assign(topo.link_count(), -1);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const auto& ins = topo.in_links(static_cast<NodeId>(n));
    nodes_[n].per_ingress.assign(ins.size(), 0);
    std::int32_t slot = 0;
    for (LinkId l : ins) in_slot_of_link_[static_cast<std::size_t>(l)] = slot++;
  }
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
      pump(ev.a, ev.b);
      return;
    case SimEventKind::FinishTx:
      finish_tx(ev.a, ev.epoch);
      return;
    case SimEventKind::Arrive:
      arrive(ev.a, Segment{ev.b, ev.c, ev.d, ev.e, ev.flag}, ev.epoch);
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
    case SimEventKind::PfcPause: {
      auto& L = links_[static_cast<std::size_t>(ev.a)];
      if (L.fail_epoch == ev.epoch) L.pfc_paused = true;
      return;
    }
    case SimEventKind::PfcResume: {
      auto& L = links_[static_cast<std::size_t>(ev.a)];
      if (L.fail_epoch == ev.epoch && L.pfc_paused) {
        L.pfc_paused = false;
        if (L.blocked) try_start(ev.a);
      }
      return;
    }
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
  ev.epoch = links_[static_cast<std::size_t>(ingress)].fail_epoch;
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
  for (const auto& inj : st.injectors) {
    d.pump_blocked |= inj.pump_blocked;
    d.pump_scheduled |= inj.pump_scheduled;
    for (std::size_t i = inj.pending_head; i < inj.pending.size(); ++i) {
      ++d.pending_chunks;
      d.bytes_pending_injection +=
          inj.pending[i].bytes - inj.pending[i].injected;
    }
  }
  for (const auto& prog : st.progress) {
    for (std::size_t c = 0; c < st.chunk_want.size(); ++c) {
      const Bytes want = st.chunk_want[c];
      if (want <= 0) continue;
      const Bytes got = c < prog.size() ? prog[c] : 0;
      if (got < want) ++d.incomplete_deliveries;
    }
  }
  return d;
}

StreamId Network::open_stream(StreamSpec spec) {
  const std::shared_ptr<const StreamTree> tree = compile_stream(*topo_, spec);
  return open_replica(tree, tree->receivers, {});
}

StreamId Network::open_replica(
    std::shared_ptr<const StreamTree> tree, std::span<const NodeId> receivers,
    const std::vector<std::uint8_t>& injector_local) {
  const StreamTree& t = *tree;
  if (!injector_local.empty() && injector_local.size() != t.injectors.size()) {
    throw std::invalid_argument("injector_local mask must match injectors");
  }
  const auto id = static_cast<StreamId>(streams_.size());
  const std::size_t node_count = topo_->node_count();
  StreamState st;
  st.tag = t.tag;
  for (std::size_t i = 0; i < t.injectors.size(); ++i) {
    const StreamTree::Injector& ti = t.injectors[i];
    Injector inj;
    inj.node = ti.node;
    inj.up_link = ti.up_link;
    inj.cc = Dcqcn(config_.dcqcn, topo_->link(ti.pace_link).rate.bytes_per_ns(),
                   t.cnp_mode, config_.sender_guard_interval);
    inj.local = injector_local.empty() || injector_local[i] != 0;
    st.injectors.push_back(std::move(inj));
  }

  // Index the tree's out-links by node: fwd_offset[n] is where node n's
  // slice starts. The tree lists slices in node order, so the offsets are a
  // prefix sum of out-degrees. arrive() then replicates with two array
  // reads and no hashing.
  st.fwd_offset.assign(node_count + 1, 0);
  for (const StreamTree::Node& tn : t.nodes) {
    st.fwd_offset[static_cast<std::size_t>(tn.node) + 1] =
        tn.out_end - tn.out_begin;
  }
  for (std::size_t n = 0; n < node_count; ++n) {
    st.fwd_offset[n + 1] += st.fwd_offset[n];
  }

  st.recv_index.assign(node_count, -1);
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    st.recv_index[static_cast<std::size_t>(receivers[i])] =
        static_cast<std::int32_t>(i);
  }
  st.progress.resize(receivers.size());
  st.last_cnp.assign(receivers.size(), kMinCnp);

  if (t.reduce()) {
    st.combiner_of_node.assign(node_count, -1);
    for (std::size_t i = 0; i < t.combiners.size(); ++i) {
      st.combiner_of_node[static_cast<std::size_t>(t.combiners[i].node)] =
          static_cast<std::int32_t>(i);
    }
    st.combiners.resize(t.combiners.size());
  }

  if (telem_) telem_->on_stream_open(id, t, receivers);
  st.fwd_links = t.out_links;
  st.tree = std::move(tree);
  streams_.push_back(std::move(st));
  return id;
}

StreamId Network::open_stream_stub() {
  const auto id = static_cast<StreamId>(streams_.size());
  streams_.emplace_back();  // no tables; keeps StreamIds aligned across domains
  return id;
}

void Network::note_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) return;
  if (chunk_index < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  const auto ci = static_cast<std::size_t>(chunk_index);
  if (st.chunk_want.size() <= ci) st.chunk_want.resize(ci + 1, 0);
  if (bytes > 0 && st.chunk_want[ci] > 0) {
    throw std::logic_error("chunk index already sent on this stream");
  }
  st.chunk_want[ci] = bytes;
  if (telem_) telem_->on_chunk_target(stream, chunk_index, bytes);
}

void Network::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) throw std::logic_error("send_chunk on closed stream");
  if (bytes <= 0) throw std::invalid_argument("chunk bytes must be positive");
  note_chunk(stream, chunk_index, bytes);
  // Every (engine-local) injector queues the chunk: a multicast's source
  // sends it once; each reduce contributor injects its own copy, and the
  // tree combines them on the way to the root.
  for (std::size_t i = 0; i < st.injectors.size(); ++i) {
    Injector& inj = st.injectors[i];
    if (!inj.local) continue;
    inj.pending.push_back(PendingChunk{chunk_index, bytes, 0});
    if (!inj.pump_scheduled) {
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
    note_chunk(stream, inj.pending[i].chunk, 0);
  }
  inj.pending.resize(keep);
  return cancelled;
}

void Network::close_stream(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (telem_ && !st.closed) {
    // Computed before the tree/progress are released below.
    telem_->on_stream_close(stream,
                            stream_diagnostic(stream).incomplete_deliveries == 0);
  }
  st.closed = true;
  // Release, don't just clear: fault-heavy runs open one recovery stream per
  // (collective, origin) per pass, and clear() retains each dead stream's
  // node-count-sized tables (fwd_offset, recv_index) forever — hundreds of
  // MiB of dead capacity across a flapping horizon.
  // NB: `v = {}` is initializer-list assignment and keeps capacity, exactly
  // like clear(); swapping with a default-constructed temporary frees it.
  auto release = [](auto& c) { std::decay_t<decltype(c)>{}.swap(c); };
  st.tree.reset();
  st.fwd_links = {};
  release(st.fwd_offset);
  release(st.recv_index);
  release(st.progress);
  release(st.last_cnp);
  release(st.chunk_want);
  // stream_cc still reads the first injector after close; the rest go.
  if (st.injectors.size() > 1) {
    st.injectors.erase(st.injectors.begin() + 1, st.injectors.end());
    st.injectors.shrink_to_fit();
  }
  if (!st.injectors.empty()) release(st.injectors.front().pending);
  release(st.combiners);
  release(st.combiner_of_node);
  // Whatever this stream still held in combiner SRAM is discarded with it.
  reduce_held_ -= st.reduce_held;
  st.reduce_held = 0;
}

void Network::on_duplex_failed(LinkId l) {
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    auto& L = links_[static_cast<std::size_t>(dir)];
    // Kill in-flight traffic even across a later repair: segments carry the
    // epoch their serialization started under, and arrive() drops stale ones.
    ++L.fail_epoch;
    // The segment mid-serialization (if any) is lost on the wire; its
    // arrival event will see the stale epoch and drop it. Everything still
    // queued behind it is lost here.
    std::size_t first_dropped = L.head + (L.busy ? 1 : 0);
    for (std::size_t i = first_dropped; i < L.q.size(); ++i) {
      const Segment& seg = L.q[i];
      L.queued -= seg.bytes;
      release_buffer(topo_->link(dir).src, seg.ingress, seg.bytes);
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
    L.pfc_paused = false;
  }
}

void Network::on_duplex_restored(LinkId l) {
  ++duplex_repairs_;
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    auto& L = links_[static_cast<std::size_t>(dir)];
    // on_duplex_failed left the queue truncated and PFC state cleared; a
    // still-busy head belongs to the outage and finish_tx will retire it.
    // New segments start flowing the moment something enqueues.
    if (!L.busy) try_start(dir);
  }
}

void Network::pump(StreamId stream, std::int32_t injector) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) return;
  Injector& inj = st.injectors[static_cast<std::size_t>(injector)];
  inj.pump_scheduled = false;

  while (inj.pending_head < inj.pending.size()) {
    const SimTime now = queue_->now();
    // Backpressure: a paused injector (its node's buffers full, e.g. under
    // PFC from downstream) stops injecting; release_buffer re-arms the pump.
    if (nodes_[static_cast<std::size_t>(inj.node)].buffered >
        pause_threshold_) {
      inj.pump_blocked = true;
      blocked_pumps_[static_cast<std::size_t>(inj.node)].push_back(
          BlockedPump{stream, injector});
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
    const Segment seg{stream, pc.chunk, static_cast<std::int32_t>(seg_bytes),
                      kInvalidLink, false};
    if (telem_) telem_->on_contribute(stream, inj.node, pc.chunk, seg_bytes);
    if (inj.up_link != kInvalidLink) {
      enqueue_segment(inj.up_link, seg);
    } else {
      const auto src = static_cast<std::size_t>(inj.node);
      for (std::int32_t i = st.fwd_offset[src]; i < st.fwd_offset[src + 1];
           ++i) {
        enqueue_segment(st.fwd_links[static_cast<std::size_t>(i)], seg);
      }
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

void Network::enqueue_segment(LinkId l, Segment seg) {
  if (topo_->link(l).failed) {
    ++lost_segments_;  // forwarding entry points at a dead port
    if (telem_) telem_->on_ingress_drop(seg.stream, seg.bytes);
    return;
  }
  auto& L = links_[static_cast<std::size_t>(l)];
  auto& N = nodes_[static_cast<std::size_t>(topo_->link(l).src)];

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
    N.per_ingress[static_cast<std::size_t>(
        in_slot_of_link_[static_cast<std::size_t>(seg.ingress)])] += seg.bytes;
    // PFC: when the shared buffer crosses the stop threshold, pause the
    // ingress port that keeps contributing.
    auto& ingress_link = links_[static_cast<std::size_t>(seg.ingress)];
    if (N.buffered > pause_threshold_ && !ingress_link.pfc_paused) {
      ingress_link.pfc_paused = true;
      ++pfc_pauses_;
      if (telem_) telem_->on_pause(seg.ingress, queue_->now());
      // Sharded engine: if another domain owns the ingress link's
      // serializer, this flip only touched the local mirror — forward the
      // pause frame to the owner.
      post_pfc(SimEventKind::PfcPause, seg.ingress);
    }
  }
  if (!L.busy) try_start(l);
}

void Network::try_start(LinkId l) {
  auto& L = links_[static_cast<std::size_t>(l)];
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
  queue_->at(end, SimEvent{SimEventKind::FinishTx, false, l, 0, 0, 0, 0,
                           L.fail_epoch});
}

void Network::finish_tx(LinkId l, std::uint32_t fail_epoch) {
  auto& L = links_[static_cast<std::size_t>(l)];
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
                      seg.chunk, seg.bytes, seg.ingress, fail_epoch});
  try_start(l);
}

void Network::unpause(LinkId l) {
  auto& L = links_[static_cast<std::size_t>(l)];
  if (!L.pfc_paused) return;
  L.pfc_paused = false;
  if (telem_) telem_->on_unpause(l, queue_->now());
  if (L.blocked) try_start(l);
  post_pfc(SimEventKind::PfcResume, l);
}

void Network::release_buffer(NodeId n, LinkId ingress, Bytes bytes) {
  auto& N = nodes_[static_cast<std::size_t>(n)];
  N.buffered -= bytes;
  if (ingress != kInvalidLink) {
    Bytes& held =
        N.per_ingress[static_cast<std::size_t>(
            in_slot_of_link_[static_cast<std::size_t>(ingress)])];
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
  for (LinkId in : topo_->in_links(n)) unpause(in);
  // Re-arm injector pumps blocked on this node's buffer.
  auto& waiting_here = blocked_pumps_[static_cast<std::size_t>(n)];
  if (!waiting_here.empty()) {
    std::vector<BlockedPump> waiting = std::move(waiting_here);
    waiting_here.clear();
    for (const BlockedPump& bp : waiting) {
      auto& st = streams_[static_cast<std::size_t>(bp.stream)];
      if (st.closed) continue;
      Injector& inj = st.injectors[static_cast<std::size_t>(bp.injector)];
      inj.pump_blocked = false;
      if (!inj.pump_scheduled) {
        inj.pump_scheduled = true;
        queue_->after(
            0, SimEvent{SimEventKind::Pump, false, bp.stream, bp.injector});
      }
    }
  }
}

void Network::arrive(LinkId l, Segment seg, std::uint32_t fail_epoch) {
  if (topo_->link(l).failed ||
      links_[static_cast<std::size_t>(l)].fail_epoch != fail_epoch) {
    // Either the link is down right now, or it died (and was possibly
    // repaired) after this segment started serializing — lost on the wire.
    ++lost_segments_;
    if (telem_) telem_->on_wire_drop(seg.stream, seg.bytes);
    return;
  }
  const NodeId n = topo_->link(l).dst;
  auto& st = streams_[static_cast<std::size_t>(seg.stream)];
  if (st.closed) return;

  // In-network reduction: an arrival at an interior node over one of its
  // mirrored child links is an upstream contribution — absorb into combiner
  // SRAM instead of replicating; reduce_absorb forwards the combined
  // frontier once all expected children have delivered it. An arrival at
  // the same node over its down in-link (never a child: the mirror has no
  // 2-cycles) is the multicast passing through and falls through to the
  // ordinary replicate path.
  if (!st.combiner_of_node.empty()) {
    const std::int32_t ci = st.combiner_of_node[static_cast<std::size_t>(n)];
    if (ci >= 0) {
      const auto& kids =
          st.tree->combiners[static_cast<std::size_t>(ci)].child_links;
      const auto slot = static_cast<std::size_t>(
          std::lower_bound(kids.begin(), kids.end(), l) - kids.begin());
      if (slot < kids.size() && kids[slot] == l) {
        reduce_absorb(seg.stream, ci, slot, seg);
        return;
      }
    }
  }

  seg.ingress = l;  // buffer occupancy downstream is charged to this port
  const auto ni = static_cast<std::size_t>(n);
  const std::int32_t out_begin = st.fwd_offset[ni];
  const std::int32_t out_end = st.fwd_offset[ni + 1];
  for (std::int32_t i = out_begin; i < out_end; ++i) {
    enqueue_segment(st.fwd_links[static_cast<std::size_t>(i)], seg);
  }

  const std::int32_t ri = st.recv_index[ni];
  if (ri >= 0) {
    auto& prog = st.progress[static_cast<std::size_t>(ri)];
    const auto ci = static_cast<std::size_t>(seg.chunk);
    if (prog.size() <= ci) prog.resize(ci + 1, 0);
    Bytes& got = prog[ci];
    got += seg.bytes;
    if (telem_) telem_->on_deliver(seg.stream, n, seg.chunk, seg.bytes);
    if (seg.marked && config_.congestion_control) maybe_cnp(seg.stream, ri, n);
    const Bytes want = ci < st.chunk_want.size() ? st.chunk_want[ci] : 0;
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
  const Segment seg{s, chunk, static_cast<std::int32_t>(bytes), kInvalidLink,
                    marked};
  if (cb.up_link != kInvalidLink) {
    enqueue_segment(cb.up_link, seg);
    return;
  }
  // Pivot: the fully combined bytes turn around and launch the forward
  // multicast down to every member.
  const auto ni = static_cast<std::size_t>(cb.node);
  const std::int32_t out_begin = st.fwd_offset[ni];
  const std::int32_t out_end = st.fwd_offset[ni + 1];
  for (std::int32_t i = out_begin; i < out_end; ++i) {
    enqueue_segment(st.fwd_links[static_cast<std::size_t>(i)], seg);
  }
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
  for (std::size_t i = 0; i < st.injectors.size(); ++i) {
    post_event(now + config_.cnp_delay,
               SimEvent{SimEventKind::CnpRate, false, s,
                        static_cast<std::int32_t>(i)});
  }
}

}  // namespace peel
