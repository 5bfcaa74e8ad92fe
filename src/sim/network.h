// Packet-level network data plane.
//
// The Network turns a Topology into a running fabric: every link is a FIFO
// serializer with an egress queue, every switch has a shared-buffer occupancy
// driving ECN marking and PFC pause/resume, and every transfer is a Stream —
// a source plus a list of links to replicate onto (a multicast tree; unicast
// is the degenerate linear tree).  Switches replicate segments onto all of a
// stream's out-links, which is exactly the replication PEEL's prefix rules,
// Orca's controller rules, or classic IP multicast entries would perform.
//
// Collectives drive the network by opening streams and feeding them chunks;
// the network calls back on every completed (receiver, chunk) delivery so
// schemes like Ring can pipeline (forward a chunk as soon as it landed).
//
// Senders: every stream owns a vector of paced injectors, each a DCQCN rate
// controller plus a chunk FIFO and a pacing clock that stops under source
// backpressure. A multicast has exactly one, at spec.source, enqueuing onto
// the source's compiled fan-out slice; an in-network reduce stream has one
// per contributor, each enqueuing on the mirror of its in-link. One pump()
// serves both, and Pump/CnpRate events name the injector in SimEvent::b.
//
// Hot-path layout: open_stream compiles the spec once (compile_stream,
// src/sim/stream_tree.h), and per-stream tables are indexed by tree index
// (position in StreamTree::nodes), not node id, so an open costs O(tree). A
// segment carries the tree index of the node its link enters (SimEvent::e of
// its Arrive), so arrive() finds that node's out-links, combiner and
// receiver slot by array indexing. Steady-state events (pump, finish_tx,
// arrive, CNP delivery, telemetry ticks) are scheduled as packed SimEvents
// dispatched back through SimEventSink instead of heap-allocated
// std::function closures; the Network binds itself as the queue's sink on
// construction. Both changes are behavior-neutral: event sequence numbers,
// firing order, and RNG draw order are exactly what the closure-based code
// produced.
//
// Source backpressure: a pump that finds its node's buffer over the PFC
// threshold parks its injector on the node's blocked list. When the buffer
// drains to the resume level, release_buffer wakes the whole list with ONE
// event (a Pump with `flag` set). One Pump per injector, scheduled at the
// same instant with consecutive sequence numbers, would fire back-to-back
// in the order they blocked, so the batch changes only the event count.
// The wake pumps the woken injectors in that order only until one of them
// leaves the buffer over the pause level again: nothing a pump does lowers
// the buffer, so each later one would block at its first check, and the
// wake re-files them as that pump would, in order, without running it. The
// release does not walk the list either: while every parked injector is
// open, has something pending and has no pump in flight (the list is not
// `dirty`), the walk would wake them all, so the list itself becomes the
// node's next window of woken injectors, and is_woken makes their flags
// read as the walk would have set them until their wake; a close marks the
// flags. A dirty list is walked, and the injectors it wakes are packed in
// place as the window. When the wake re-files the rest and nothing else
// parked since the release, they stay in place (docs/performance.md,
// "Hot-path layout"). A wake thus costs the injectors that pump, not the
// list's length. The resume walk over a node's in-links runs only while one
// of them is PFC-paused: every flip of a node's in-link pause bits goes
// through set_rx_paused, which keeps a per-node count.
//
// State tables: a Network holds state only for the nodes and links its
// domain owns (src/topology/shard_plan.h), in tables indexed by the plan's
// dense slots. A link's serializer state sits in its source's domain, its
// receive side (fail epoch, PFC pause bit, the bytes it holds in its
// destination's buffer) in its destination's; for a link inside one domain
// both are one record. Segments and events keep global ids; only the table
// lookups go through a slot (a FinishTx, which never leaves its domain,
// also carries its link's slot, so its handler skips the lookup). The solo
// engine is the one-domain plan, where every slot is its global id.
//
// Per-stream state: the compiled tree and the ChunkTable (chunk targets,
// src/sim/stream_tree.h) are shared; injectors, combiners and receiver
// progress are this domain's replica. A sharded replica opens under
// ShardedNetwork's stream id and reads that engine's table; the solo engine
// owns its tables.
//
// CNPs: every CNP reaches its injector cnp_delay after the marked arrival
// that sent it, so on a single queue an injector's CNPs arrive in posting
// order, and maybe_cnp asks the injector's Dcqcn (admit_cnp) whether the
// sender guard will swallow each one. A swallowed CNP is counted in
// cnps_seen when posted and only takes its slot in the queue
// (EventQueue::skip), which keeps the drain clock, empty() and
// pending() > 0 as if it were scheduled; only the event count falls. With a
// CrossDomainHook bound the hook may hold a CNP instead: the sharded engine
// learns a CNP's arrival order at its injector only at the mailbox merge,
// and applies the same rule there (Network::admit_cnp).
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/config.h"
#include "src/sim/data_plane.h"
#include "src/sim/dcqcn.h"
#include "src/sim/event_queue.h"
#include "src/sim/stream_tree.h"
#include "src/sim/telemetry.h"
#include "src/topology/shard_plan.h"
#include "src/topology/topology.h"

namespace peel {

/// Shard-mode routing hook (src/sim/sharded.h): claims events whose handler
/// lives in another execution domain. `post` returns true when it captured
/// the event for cross-domain delivery at absolute time `t` (or, for a
/// CnpRate, held it for admission at the mailbox merge); false means the
/// event is domain-local and the Network schedules it on its own queue. A
/// Network with no hook bound behaves exactly as before — the hook sites are
/// behavior-neutral for the single-queue engine.
class CrossDomainHook {
 public:
  virtual ~CrossDomainHook() = default;
  virtual bool post(SimTime t, const SimEvent& ev) = 0;
};

class Network final : public SimEventSink, public DataPlane {
 public:
  /// The solo engine: the whole fabric as one domain.
  Network(const Topology& topo, const SimConfig& config, EventQueue& queue);
  /// Domain `domain` of `plan` (the sharded engine): state only for the
  /// nodes and links the domain owns, and the receive side of the links
  /// that enter it from other domains.
  Network(const Topology& topo, const SimConfig& config, EventQueue& queue,
          std::shared_ptr<const ShardPlan> plan, std::int32_t domain);
  ~Network() override;

  /// Invoked whenever a member receiver finishes a chunk.
  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    on_delivery_ = std::move(handler);
  }

  StreamId open_stream(StreamSpec spec) override;

  /// Shard-mode replica open of stream `id`, which ShardedNetwork already
  /// compiled and numbered: `chunks` is the stream's one chunk table, which
  /// must outlive this instance, every replica reads and only control
  /// steps write; `receivers` is
  /// the subset of tree->receivers this replica tracks, in tree order
  /// (std::invalid_argument otherwise), and `injector_local` is parallel to
  /// tree->injectors — 1 = this replica paces that injector, 0 = a peer
  /// domain does; empty = all local. `id` must be past every id this
  /// instance opened (std::invalid_argument otherwise); the ids it skips
  /// hold no tables, and events for them must never be routed here.
  void open_replica(StreamId id, std::shared_ptr<const StreamTree> tree,
                    ChunkTable& chunks,
                    std::span<const NodeId> receivers,
                    const std::vector<std::uint8_t>& injector_local);

  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override;

  /// send_chunk on this replica's own injectors, for a chunk the stream's
  /// table already records.
  void queue_chunk(StreamId stream, int chunk_index, Bytes bytes);

  /// Removes chunks whose injection has not begun and clears their targets
  /// in the stream's table; returns their indices (used by PEEL+programmable
  /// cores to migrate traffic mid-collective). The sharded engine calls it
  /// on a multicast's source replica, which paces the one injector.
  /// Throws std::logic_error on an open in-network reduce stream.
  std::vector<int> cancel_unsent_chunks(StreamId stream) override;

  /// Frees a finished stream's bookkeeping (forwarding table, progress).
  void close_stream(StreamId stream) override;

  /// close_stream on this replica, leaving the stream's table open: the
  /// sharded engine closes it once every replica has reported to telemetry.
  void close_replica(StreamId stream);

  /// Reacts to a mid-run failure of the duplex pair containing `l` (mark the
  /// Topology failed first): queued segments on both directions are lost, as
  /// are segments still in flight on the dead wire. Streams routed through
  /// the link silently stop delivering past it — recovery is the collective
  /// layer's job (CollectiveRunner::recover_collective). A domain changes
  /// only the link state it holds; one that owns neither end is untouched.
  void on_duplex_failed(LinkId l) override;

  /// Reacts to a mid-run repair of the duplex pair containing `l` (call
  /// Topology::restore_duplex first). Segments that were on the wire or
  /// queued when the link died stay dead — each failure advances the link's
  /// fail epoch, and arrivals from an older epoch are dropped even if the
  /// link is live again by then. New traffic flows immediately.
  void on_duplex_restored(LinkId l) override;

  /// Binds the shard-mode routing hook (nullptr to unbind). With a hook
  /// bound, cross-domain Arrive / CnpRate events are diverted to it, and PFC
  /// pause state changes on remote-owned ingress links are forwarded as
  /// PfcPause / PfcResume frames carrying one propagation delay.
  void set_cross_domain_hook(CrossDomainHook* hook) noexcept {
    xhook_ = hook;
  }

  /// Schedules CnpRate `ev` at (t, seq), a reservation drawn when it was
  /// posted (solo) or merged from a mailbox (sharded), if its injector's
  /// guard timer will react to it (Dcqcn::admit_cnp); otherwise the CNP
  /// only takes its slot (EventQueue::skip). Exact only when every CNP of
  /// an injector comes through here in firing order.
  void admit_cnp(SimTime t, std::uint64_t seq, const SimEvent& ev);

  /// Dispatches a packed data-plane event (EventQueue calls this; not for
  /// external use).
  void on_sim_event(const SimEvent& ev) override;

  /// Arms the telemetry sampler unless it is running: at construction, when
  /// send_chunk brings new local work, and (shard mode) after a mailbox
  /// drain delivered fresh cross-domain work to this domain's queue.
  void rearm_sampler();

  /// Segments dropped by mid-run failures.
  [[nodiscard]] std::uint64_t segments_lost() const noexcept { return lost_segments_; }
  /// Duplex pairs repaired mid-run via on_duplex_restored.
  [[nodiscard]] std::uint64_t duplex_repairs() const noexcept { return duplex_repairs_; }

  // --- telemetry ----------------------------------------------------------
  [[nodiscard]] Bytes total_bytes_serialized() const noexcept { return total_bytes_; }
  /// Segments that completed serialization on some link (each replication
  /// hop counts once) — the natural unit for data-plane throughput.
  [[nodiscard]] std::uint64_t segments_serialized() const noexcept {
    return segments_serialized_;
  }
  /// Bytes serialized onto `l`; its source must be in this domain.
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return out_state(l).serialized;
  }
  [[nodiscard]] std::uint64_t segments_marked() const noexcept { return marked_segments_; }
  /// High-water mark of combiner SRAM held across all reduce streams (bytes
  /// a fast child is ahead of its slowest sibling at some aggregation point).
  [[nodiscard]] Bytes reduce_sram_peak() const noexcept { return reduce_held_peak_; }
  [[nodiscard]] std::uint64_t pfc_pauses() const noexcept { return pfc_pauses_; }
  /// High-water mark of one link's egress queue.
  [[nodiscard]] Bytes link_queue_peak(LinkId l) const {
    return out_state(l).queue_peak;
  }
  /// Rate controller of stream `s`'s first injector: a multicast's source,
  /// contributor 0 of a reduce stream. Still readable after close_stream.
  [[nodiscard]] const Dcqcn& stream_cc(StreamId s) const {
    return streams_[static_cast<std::size_t>(s)].injectors.front().cc;
  }

  /// Non-null iff SimConfig::telemetry.enabled (src/sim/telemetry.h).
  /// Mutable access for capacity hints (Telemetry::reserve_series); counter
  /// mutation stays behind the Network's own hooks.
  [[nodiscard]] Telemetry* telemetry() noexcept { return telem_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const noexcept {
    return telem_.get();
  }
  /// True while `s` is open and its compiled forwarding table replicates
  /// onto `l` (one direction; callers check both directions of a duplex
  /// pair). Closed streams report false — their tables are released.
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override {
    const StreamState& st = streams_[static_cast<std::size_t>(s)];
    if (st.closed || st.tree == nullptr) return false;  // closed, or unopened
    return std::ranges::find(st.tree->out_links, l) != st.tree->out_links.end();
  }
  /// Progress snapshot for stuck-flow reports (works without telemetry).
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override;

 private:
  struct Segment {
    StreamId stream;
    std::int32_t chunk;
    std::int32_t bytes;
    LinkId ingress;  // link that delivered it to the current node (or invalid)
    std::int32_t at;  // tree index of the node the queued-on link enters
    bool marked;
  };

  /// One link's state in this domain, at its slot: the serializer side
  /// (its source is here), the receive side (its destination is here), or
  /// both in one record. A crossing link's mirror uses only fail_epoch,
  /// pfc_paused and ingress_held.
  struct LinkState {
    std::vector<Segment> q;  // FIFO via head index
    std::size_t head = 0;
    Bytes queued = 0;
    Bytes serialized = 0;
    Bytes queue_peak = 0;     // high-water mark of the egress queue
    /// Bytes in the destination's shared buffer that arrived over this link
    /// — PFC pauses per ingress port, which is what keeps bidirectional
    /// traffic through a node from deadlocking.
    Bytes ingress_held = 0;
    /// Bumped on every failure of this link; a segment snapshots it when its
    /// serialization starts and is dropped on arrival if it no longer
    /// matches — a repair must never resurrect traffic that was on the dead
    /// wire (or queued behind it) during the outage.
    std::uint32_t fail_epoch = 0;
    bool busy = false;
    bool blocked = false;     // wants to serialize but is PFC-paused
    bool pfc_paused = false;  // downstream asked this link's sender to stop
  };

  /// Injectors whose pacing is blocked on a full buffer.
  struct BlockedPump {
    StreamId stream;
    std::int32_t injector;
  };

  struct NodeState {
    Bytes buffered = 0;
    /// In-links of this node whose receive-side pfc_paused is set
    /// (set_rx_paused keeps it); release_buffer skips its resume walk while
    /// it is zero.
    std::int32_t paused_in = 0;
    /// The log may hold an entry the release would not wake, or that a
    /// re-block would not keep: a closed stream, a pump already in flight,
    /// a repeat, an injector with nothing pending, or one a walk woke. The
    /// next release then walks the list, and a wake re-files entry by
    /// entry. Only a wake that leaves nothing else in the log clears it.
    bool dirty = false;
    /// Injectors blocked on this buffer, as a log: the entry at position p
    /// sits at blocked[p - blocked_base]. [blocked_base, woken_lo) is
    /// spent; [woken_lo, woken_hi) holds the windows, the batches of
    /// releases whose wakes are pending, in release order; [woken_hi, end)
    /// is the blocked list proper.
    std::vector<BlockedPump> blocked;
    std::int64_t blocked_base = 0;
    std::int64_t woken_lo = 0;
    std::int64_t woken_hi = 0;

    /// One past the last log position.
    [[nodiscard]] std::int64_t log_end() const {
      return blocked_base + static_cast<std::int64_t>(blocked.size());
    }
    [[nodiscard]] const BlockedPump& entry(std::int64_t p) const {
      return blocked[static_cast<std::size_t>(p - blocked_base)];
    }
  };

  struct PendingChunk {
    int chunk;
    Bytes bytes;
    Bytes injected = 0;
  };

  /// Pacing state of one paced sender, parallel to StreamTree::injectors
  /// (where it injects: a multicast's source, or one contributor of an
  /// in-network reduce stream).
  struct Injector {
    Dcqcn cc;
    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    bool pump_scheduled = false;
    bool pump_blocked = false;  // waiting for its node's buffer to drain
    bool local = true;  ///< sharded engine: false = a peer domain paces this
    SimTime pace_next = 0;
    /// Log position of its latest blocked entry on its node, or -1. In the
    /// node's window it reads as woken (see is_woken).
    std::int64_t blocked_at = -1;
  };

  /// Combining state at one aggregation point of a reduce stream, parallel
  /// to StreamTree::combiners. A chunk's bytes move upstream only once every
  /// child link has delivered them, so out_progress[chunk] tracks min over
  /// children. Bytes a faster child is ahead by sit in switch SRAM (the
  /// Network-wide reduce_held gauge).
  struct ReduceCombiner {
    std::vector<std::vector<Bytes>> child_bytes;  ///< [chunk][child slot]
    std::vector<Bytes> out_progress;              ///< [chunk] bytes forwarded
  };

  struct StreamState {
    /// The compiled stream; released on close.
    std::shared_ptr<const StreamTree> tree;
    /// The stream's targets and send contract: in own_chunks_ on the solo
    /// engine, shared by every replica on the sharded one.
    ChunkTable* chunks = nullptr;
    std::uint64_t tag = 0;
    bool closed = false;  ///< this replica's tables are released

    /// Paced senders, parallel to tree->injectors and indexed by SimEvent::b
    /// of Pump/CnpRate events.
    std::vector<Injector> injectors;

    // In-network reduction (non-empty combiners <=> a reduce tree): one
    // combiner per aggregation node, found through StreamTree::Node::combiner.
    std::vector<ReduceCombiner> combiners;
    Bytes reduce_held = 0;  ///< this stream's share of the SRAM gauge

    // Receiver-side state, keyed by compact receiver index (position in the
    // replica's receiver list). Forwarding reads tree->out_links directly.
    /// Tree index -> compact receiver index, or -1 (the size of the tree).
    std::vector<std::int32_t> recv_slot;
    /// [receiver index][chunk] -> bytes received so far (grown on demand).
    std::vector<std::vector<Bytes>> progress;
    /// [receiver index] -> last CNP emission (CnpMode::ReceiverTimer).
    std::vector<SimTime> last_cnp;
  };

  /// Paced injection for injector `injector` of stream `s`.
  void pump(StreamId s, std::int32_t injector);
  /// The handler of a Pump event with `flag` set: wakes node `n`'s first
  /// pending window, its next `count` log entries. It calls wake() on each
  /// in order until one returns true, then re-files the rest.
  void pump_woken(NodeId n, std::int32_t count);
  /// Pumps woken injector `bp` of node `N` as its own Pump event would.
  /// True iff N's buffer is over the pause level after it: nothing a pump
  /// does lowers the buffer, so every later injector of the same wake would
  /// block at its first check, and the wake re-files them instead.
  bool wake(NodeState& N, BlockedPump bp);
  /// Appends injector `bp` (`inj`) to `N`'s blocked list.
  void park(NodeState& N, const BlockedPump& bp, Injector& inj);
  /// What pump() does to a woken injector that finds its node's buffer over
  /// the pause level: drops the flags the release set and parks it again
  /// unless it has nothing pending. A closed stream is left as it is.
  void refile(NodeState& N, BlockedPump bp);
  /// Frees N's spent log prefix once it is most of the log.
  static void compact(NodeState& N);
  /// True iff `inj`, parked on `N`, sits in one of N's windows: its flags
  /// read as the release set them (pump_scheduled, not pump_blocked). A
  /// walk sets those flags itself and leaves blocked_at at -1.
  [[nodiscard]] static bool is_woken(const Injector& inj, const NodeState& N) {
    return inj.blocked_at >= N.woken_lo && inj.blocked_at < N.woken_hi;
  }
  /// A segment of reduce stream `s` arrived at combiner `combiner` over the
  /// child link in `slot`: absorb it, advance the min-over-children
  /// frontier, and schedule a ReduceEmit for any newly combined bytes.
  void reduce_absorb(StreamId s, std::int32_t combiner, std::size_t slot,
                     const Segment& seg);
  /// Fires combine_latency after a frontier advance: enqueues the combined
  /// bytes on the combiner's upstream egress — or, at the pivot, launches
  /// them onto the forward multicast fan-out.
  void reduce_emit(StreamId s, std::int32_t combiner, std::int32_t chunk,
                   Bytes bytes, bool marked);
  /// Schedules `ev` at `t`, letting the cross-domain hook (if any) claim it
  /// for another domain's queue first.
  void post_event(SimTime t, const SimEvent& ev) {
    if (xhook_ != nullptr && xhook_->post(t, ev)) return;
    queue_->at(t, ev);
  }
  /// Shard-mode: forwards a PFC pause-state change on `ingress` to the
  /// link's owning domain, one propagation delay out. No-op without a hook
  /// (single-queue engine: the local state flip already IS the real state).
  void post_pfc(SimEventKind kind, LinkId ingress);
  void enqueue_segment(LinkId l, Segment seg);
  /// Enqueues a copy of `seg` on every out-link of tree node `at`, in spec
  /// order, each naming the tree node its link enters.
  void replicate(const StreamTree& t, std::int32_t at, Segment seg);
  /// Starts serializing the head of `l`'s queue unless busy or paused; `L`
  /// is its serializer-side state.
  void try_start(LinkId l, LinkState& L);
  void finish_tx(LinkId l, LinkState& L, std::uint32_t fail_epoch);
  void arrive(LinkId l, Segment seg, std::uint32_t fail_epoch);
  /// Buffer released at node `n` for a segment that arrived over `ingress`;
  /// lifts PFC pauses and re-arms blocked injector pumps as thresholds allow.
  void release_buffer(NodeId n, LinkId ingress, Bytes bytes);
  void unpause(LinkId l);
  /// Flips the receive-side pfc_paused of `l` (its destination is in this
  /// domain) and keeps the destination's NodeState::paused_in in step. A
  /// no-op when the state is unchanged.
  void set_rx_paused(LinkId l, bool paused);
  void maybe_cnp(StreamId s, std::int32_t recv_idx, NodeId receiver);
  /// Telemetry time-series sampler: records one sample, then reschedules
  /// itself only while other events remain, so it never keeps an otherwise
  /// drained simulation alive. send_chunk re-arms a lapsed sampler, so quiet
  /// gaps between collective phases don't kill the time series for good.
  void sample_tick();

  /// True iff node `n` belongs to this domain.
  [[nodiscard]] bool owns(NodeId n) const {
    return plan_->domain_of_node(n) == domain_;
  }
  /// Serializer-side state of `l`, whose source is in this domain.
  [[nodiscard]] LinkState& out_state(LinkId l) {
    return links_[static_cast<std::size_t>(link_slot_[l])];
  }
  [[nodiscard]] const LinkState& out_state(LinkId l) const {
    return links_[static_cast<std::size_t>(link_slot_[l])];
  }
  /// Receive-side state of `l`, whose destination is in this domain.
  [[nodiscard]] LinkState& rx_state(LinkId l) {
    return links_[static_cast<std::size_t>(rx_slot_[l])];
  }
  [[nodiscard]] NodeState& node_state(NodeId n) {
    return nodes_[static_cast<std::size_t>(node_slot_[n])];
  }
  [[nodiscard]] const NodeState& node_state(NodeId n) const {
    return nodes_[static_cast<std::size_t>(node_slot_[n])];
  }

  const Topology* topo_;
  SimConfig config_;
  EventQueue* queue_;
  Rng rng_;

  std::shared_ptr<const ShardPlan> plan_;
  std::int32_t domain_;
  /// The plan's slot maps (global id -> slot), read on every lookup.
  const std::int32_t* link_slot_;
  const std::int32_t* rx_slot_;
  const std::int32_t* node_slot_;

  std::vector<LinkState> links_;  ///< by link slot
  std::vector<NodeState> nodes_;  ///< by node slot
  std::vector<StreamState> streams_;
  /// The solo engine's chunk tables, by stream id; a deque, so that the
  /// tables stay where streams_ points.
  std::deque<ChunkTable> own_chunks_;

  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::unique_ptr<Telemetry> telem_;
  CrossDomainHook* xhook_ = nullptr;

  Bytes total_bytes_ = 0;
  Bytes reduce_held_ = 0;       ///< combiner SRAM currently occupied
  Bytes reduce_held_peak_ = 0;  ///< high-water mark of the above
  std::uint64_t segments_serialized_ = 0;
  std::uint64_t marked_segments_ = 0;
  std::uint64_t pfc_pauses_ = 0;
  std::uint64_t lost_segments_ = 0;
  std::uint64_t duplex_repairs_ = 0;
  Bytes pause_threshold_ = 0;
  /// PFC resume level: pause threshold minus hysteresis, clamped at zero so
  /// an over-sized hysteresis can never make resumption unreachable.
  Bytes resume_threshold_ = 0;
  bool sampler_armed_ = false;

  static constexpr SimTime kMinCnp = -(1LL << 62);
};

}  // namespace peel
