// Packet-level network data plane.
//
// The Network turns a Topology into a running fabric: every link is a FIFO
// serializer with an egress queue, every switch has a shared-buffer occupancy
// driving ECN marking and PFC pause/resume, and every transfer is a Stream —
// a source plus a forwarding map (a multicast tree; unicast is the
// degenerate linear tree).  Switches replicate segments onto all of a
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
// src/sim/stream_tree.h) and indexes the tree's out-links as a CSR table
// (per-node offsets into the tree's flat out-link array) and the receiver
// set as a dense node->index map, so the per-segment work in arrive() is
// array indexing with no hashing. Steady-state events (pump, finish_tx,
// arrive, CNP delivery, telemetry ticks) are scheduled as packed SimEvents
// dispatched back through SimEventSink instead of heap-allocated
// std::function closures; the Network binds itself as the queue's sink on
// construction. Both changes are behavior-neutral: event sequence numbers,
// firing order, and RNG draw order are exactly what the closure-based code
// produced.
#pragma once

#include <algorithm>
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
#include "src/topology/topology.h"

namespace peel {

/// Shard-mode routing hook (src/sim/sharded.h): claims events whose handler
/// lives in another execution domain. `post` returns true when it captured
/// the event for cross-domain delivery at absolute time `t`; false means the
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
  Network(const Topology& topo, const SimConfig& config, EventQueue& queue);
  ~Network() override;

  /// Invoked whenever a member receiver finishes a chunk.
  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    on_delivery_ = std::move(handler);
  }

  StreamId open_stream(StreamSpec spec) override;

  /// Shard-mode replica open of a stream ShardedNetwork already compiled:
  /// `receivers` is the subset of tree->receivers this replica tracks, and
  /// `injector_local` is parallel to tree->injectors — 1 = this replica
  /// paces that injector, 0 = a peer domain does; empty = all local.
  StreamId open_replica(std::shared_ptr<const StreamTree> tree,
                        std::span<const NodeId> receivers,
                        const std::vector<std::uint8_t>& injector_local);

  /// Shard-mode: reserves the next StreamId with no forwarding/receiver
  /// state, keeping ids aligned across domain replicas that do not
  /// participate in the stream. Events for a stub stream must never be
  /// routed to this instance.
  StreamId open_stream_stub();

  /// Queues `bytes` of chunk `chunk_index` for paced injection at the source.
  /// Chunk indices must be non-negative (they key dense per-receiver state);
  /// a repeat of a chunk with a positive target throws std::logic_error.
  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override;

  /// Records the chunk's target size so arrivals in this domain can
  /// complete deliveries, without scheduling any injection; send_chunk
  /// calls it first, and the sharded engine mirrors send_chunk with it on
  /// non-injecting replicas. `bytes` 0 un-records a chunk (cancel); a
  /// positive size on a chunk that already has one throws std::logic_error.
  void note_chunk(StreamId stream, int chunk_index, Bytes bytes);

  /// Removes chunks whose injection has not begun; returns their indices
  /// (used by PEEL+programmable cores to migrate traffic mid-collective).
  /// Throws std::logic_error on an open in-network reduce stream.
  std::vector<int> cancel_unsent_chunks(StreamId stream) override;

  /// Frees a finished stream's bookkeeping (forwarding table, progress).
  void close_stream(StreamId stream) override;

  /// Reacts to a mid-run failure of the duplex pair containing `l` (mark the
  /// Topology failed first): queued segments on both directions are lost, as
  /// are segments still in flight on the dead wire. Streams routed through
  /// the link silently stop delivering past it — recovery is the collective
  /// layer's job (CollectiveRunner::recover_collective).
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
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return links_[static_cast<std::size_t>(l)].serialized;
  }
  [[nodiscard]] std::uint64_t segments_marked() const noexcept { return marked_segments_; }
  /// High-water mark of combiner SRAM held across all reduce streams (bytes
  /// a fast child is ahead of its slowest sibling at some aggregation point).
  [[nodiscard]] Bytes reduce_sram_peak() const noexcept { return reduce_held_peak_; }
  [[nodiscard]] std::uint64_t pfc_pauses() const noexcept { return pfc_pauses_; }
  /// High-water mark of one link's egress queue.
  [[nodiscard]] Bytes link_queue_peak(LinkId l) const {
    return links_[static_cast<std::size_t>(l)].queue_peak;
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
    if (st.closed) return false;
    return std::find(st.fwd_links.begin(), st.fwd_links.end(), l) !=
           st.fwd_links.end();
  }
  /// Progress snapshot for stuck-flow reports (works without telemetry).
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override;

 private:
  struct Segment {
    StreamId stream;
    std::int32_t chunk;
    std::int32_t bytes;
    LinkId ingress;  // link that delivered it to the current node (or invalid)
    bool marked;
  };

  struct LinkState {
    std::vector<Segment> q;  // FIFO via head index
    std::size_t head = 0;
    Bytes queued = 0;
    bool busy = false;
    bool blocked = false;     // wants to serialize but is PFC-paused
    bool pfc_paused = false;  // downstream asked this link's sender to stop
    Bytes serialized = 0;
    Bytes queue_peak = 0;     // high-water mark of the egress queue
    /// Bumped on every failure of this link; a segment snapshots it when its
    /// serialization starts and is dropped on arrival if it no longer
    /// matches — a repair must never resurrect traffic that was on the dead
    /// wire (or queued behind it) during the outage.
    std::uint32_t fail_epoch = 0;
  };

  struct NodeState {
    Bytes buffered = 0;
    /// Buffered bytes attributed to the ingress link that delivered them —
    /// PFC pauses per ingress port, which is what keeps bidirectional
    /// traffic through a node from deadlocking. Indexed by the link's
    /// position in this node's in-link list (in_slot_of_link_).
    std::vector<Bytes> per_ingress;
  };

  struct PendingChunk {
    int chunk;
    Bytes bytes;
    Bytes injected = 0;
  };

  /// One paced sender: a multicast's source, or one contributor of an
  /// in-network reduce stream.
  struct Injector {
    NodeId node = kInvalidNode;
    /// kInvalidLink: enqueue onto `node`'s fan-out slice of the forwarding
    /// table (a multicast source). Otherwise the mirror of the tree's in-link
    /// to `node`, up which a reduce contribution climbs.
    LinkId up_link = kInvalidLink;
    Dcqcn cc;
    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    bool pump_scheduled = false;
    bool pump_blocked = false;  // waiting for `node`'s buffer to drain
    bool local = true;  ///< sharded engine: false = a peer domain paces this
    SimTime pace_next = 0;
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
    std::uint64_t tag = 0;
    bool closed = false;

    /// Paced senders, parallel to tree->injectors and indexed by SimEvent::b
    /// of Pump/CnpRate events.
    std::vector<Injector> injectors;

    // In-network reduction (non-empty combiners <=> a reduce tree): one
    // combiner per aggregation node and a dense node -> combiner index for
    // the arrive() fast path.
    std::vector<ReduceCombiner> combiners;
    std::vector<std::int32_t> combiner_of_node;
    Bytes reduce_held = 0;  ///< this stream's share of the SRAM gauge

    // Forwarding table (CSR over node ids): node n replicates onto
    // fwd_links[fwd_offset[n] .. fwd_offset[n+1]), in spec order.
    std::vector<std::int32_t> fwd_offset;
    std::span<const LinkId> fwd_links;  ///< tree->out_links

    // Dense receiver-side state, keyed by compact receiver index.
    std::vector<std::int32_t> recv_index;  ///< node -> compact index, or -1
    /// chunk -> bytes the collective queued for it; 0 = no such chunk
    /// (send_chunk enforces positive sizes, so 0 is unambiguous).
    std::vector<Bytes> chunk_want;
    /// [receiver index][chunk] -> bytes received so far (grown on demand).
    std::vector<std::vector<Bytes>> progress;
    /// [receiver index] -> last CNP emission (CnpMode::ReceiverTimer).
    std::vector<SimTime> last_cnp;
  };

  /// Paced injection for injector `injector` of stream `s`.
  void pump(StreamId s, std::int32_t injector);
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
  void try_start(LinkId l);
  void finish_tx(LinkId l, std::uint32_t fail_epoch);
  void arrive(LinkId l, Segment seg, std::uint32_t fail_epoch);
  /// Buffer released at node `n` for a segment that arrived over `ingress`;
  /// lifts PFC pauses and re-arms blocked injector pumps as thresholds allow.
  void release_buffer(NodeId n, LinkId ingress, Bytes bytes);
  void unpause(LinkId l);
  void maybe_cnp(StreamId s, std::int32_t recv_idx, NodeId receiver);
  /// Telemetry time-series sampler: records one sample, then reschedules
  /// itself only while other events remain, so it never keeps an otherwise
  /// drained simulation alive. send_chunk re-arms a lapsed sampler, so quiet
  /// gaps between collective phases don't kill the time series for good.
  void sample_tick();

  const Topology* topo_;
  SimConfig config_;
  EventQueue* queue_;
  Rng rng_;

  std::vector<LinkState> links_;
  std::vector<NodeState> nodes_;
  std::vector<StreamState> streams_;
  /// link -> its slot within its destination node's in-link list; valid for
  /// every link because each directed link has exactly one destination.
  std::vector<std::int32_t> in_slot_of_link_;
  /// Injectors whose pacing is blocked on a full buffer, per node.
  struct BlockedPump {
    StreamId stream;
    std::int32_t injector;
  };
  std::vector<std::vector<BlockedPump>> blocked_pumps_;

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
