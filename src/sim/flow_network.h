// Flow-level (fluid) network data plane — the fast fidelity of the
// multi-fidelity engine (ROADMAP item 5).
//
// Where the packet-level Network serializes 64 KiB segments through FIFO
// egress queues, the FlowNetwork models every stream as a single-rate fluid
// flow over its full compiled link set. Links share bandwidth by
// progressive-filling max-min fair allocation, and DCQCN/ECN/PFC dynamics
// collapse into per-CnpMode utilization caps fitted from cnp_dynamics.csv
// (SimConfig::flow): a contended flow sustains only a fraction of its fair
// share, exactly as the packet-level rate controllers do in steady state.
//
// Events fire only when something discrete happens — a chunk finishes, a
// stream arrives or departs, a link fails or is repaired — and each such
// event re-solves rates for the affected *connected component* only (streams
// transitively sharing a link), never the whole fabric. Scheduled chunk
// completions are invalidated lazily via per-stream generation counters, so
// a rate change costs one reschedule, not a queue scan. The result is
// O(receivers + links) work per chunk instead of O(segments x hops), which
// is where the >= 20x event reduction flow_fidelity_test asserts comes from.
//
// One solve (recompute_component) walks each (link, flow) pair of the
// component once and allocates nothing in steady state: a persistent
// per-link slot index and member scratch buffers (flat CSR flow<->link
// lists) are reused across calls. Progressive filling then takes
// bottlenecks from a lazily keyed min-heap of C candidates (one per link
// two or more flows share, plus one per flow), so a solve costs at worst
// O((P + C) log C) for P flow-link pairs, plus the re-rated flows'
// reschedules. The allocation is exact, bit for bit, to a full rescan of
// every link at every fill level:
//   - a link's fill is max(remaining capacity, 0) / unassigned flows, and
//     the bottleneck is the lowest (fill, link id);
//   - each level assigns that fill to every unassigned flow through the
//     bottleneck and subtracts it from each of their links, so every link
//     sees the same subtractions in the same order;
//   - a flow is contended (DCQCN cap) when a live link of it carried two
//     or more active flows when the solve began;
//   - flows whose rate changed are settled and rescheduled in ascending
//     stream id, so event sequence numbers depend only on the component.
//
// The byte-audit contract is identical to the packet engine's: all integer
// telemetry for a chunk (every injector's contribution, per-link
// enqueue+serialize, per-receiver delivery credit, and the combiner rows of
// a fused reduce stream) is recorded lump-sum at the chunk's completion
// instant, so conservation holds by construction and cancelled or truncated
// chunks never leave phantom bytes behind. Each receiver and each link is
// credited once per path from the source into it (StreamTree::Node::paths),
// so a forward map that enters a node twice over-delivers here exactly as
// it does on the packet engine. Delivery *callbacks* still fire at
// physically plausible times (completion + per-receiver path delay), so
// pipelined collectives (Ring's store-and-forward chaining) see the same
// chunk-granularity timing structure as the packet engine.
//
// Fault semantics mirror the packet engine at flow granularity:
//   - a broadcast stream crossing a failed duplex pair keeps flowing on the
//     source-reachable part of its tree; severed receivers stop being
//     credited (the bytes are recorded as wire losses, which exempts the
//     stream from the under-delivery audit exactly like packet-level
//     losses), and chunks completing after a repair reach the full tree;
//   - an in-network reduce stream freezes on any failure in its fused tree
//     (rate 0) until the recovery pass supersedes it — the packet engine's
//     combiners stall the same way when a child's segments stop arriving.
// stream_uses_link keeps answering for the full compiled forward set, so
// CollectiveRunner damage detection and recovery work unchanged.
//
// In addition to the audited lump-sum link bytes, every link integrates its
// piecewise-constant allocated rate (∫ rate dt). The two accountings are
// kept equal by construction — partial progress of a chunk that dies
// (cancel, close, truncation) is retroactively removed from the integral —
// and tests/flow_fidelity_test.cpp asserts the identity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/data_plane.h"
#include "src/sim/event_queue.h"
#include "src/sim/stream_tree.h"
#include "src/sim/telemetry.h"
#include "src/topology/topology.h"

namespace peel {

class FlowNetwork final : public DataPlane {
 public:
  FlowNetwork(const Topology& topo, const SimConfig& config, EventQueue& queue);
  ~FlowNetwork() override;

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // --- DataPlane ----------------------------------------------------------
  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    on_delivery_ = std::move(handler);
  }
  StreamId open_stream(StreamSpec spec) override;
  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override;
  std::vector<int> cancel_unsent_chunks(StreamId stream) override;
  void close_stream(StreamId stream) override;
  void on_duplex_failed(LinkId l) override;
  void on_duplex_restored(LinkId l) override;
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override;
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override;
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return links_[static_cast<std::size_t>(l)].serialized;
  }

  // --- engine surface -----------------------------------------------------
  [[nodiscard]] std::uint64_t segments_serialized() const noexcept {
    return segments_serialized_;
  }
  [[nodiscard]] std::uint64_t segments_lost() const noexcept {
    return lost_segments_;
  }
  /// The fluid model has no queues, so nothing ever marks or pauses.
  [[nodiscard]] std::uint64_t segments_marked() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t pfc_pauses() const noexcept { return 0; }
  /// Combiner SRAM holding is a segment-skew phenomenon; a single-rate fluid
  /// reduce stream has no skew to hold.
  [[nodiscard]] Bytes reduce_sram_peak() const noexcept { return 0; }
  /// ∫ rate dt over the run so far, in bytes. At drain this equals the
  /// audited link_bytes(l) (see the header comment and the property test).
  [[nodiscard]] double link_rate_integral(LinkId l) const {
    return links_[static_cast<std::size_t>(l)].util_integral;
  }

  [[nodiscard]] Telemetry* telemetry() noexcept { return telem_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const noexcept {
    return telem_.get();
  }

 private:
  struct PendingChunk {
    int chunk;
    Bytes bytes;
  };

  /// One receiver's precompiled path timing: last-byte delivery lags the
  /// source-side chunk completion by prop_sum + last_segment * inv_rate_sum
  /// (per-hop cut-through at segment granularity, matching the packet
  /// engine's store-and-forward of the final segment).
  struct RecvInfo {
    NodeId node = kInvalidNode;
    SimTime prop_sum = 0;
    double inv_rate_sum = 0.0;  ///< ns per byte, summed over path hops
    /// Copies of each chunk the receiver gets: its paths from the source
    /// (StreamTree::Node::paths), 1 on a tree.
    std::int32_t paths = 0;
    bool live = true;           ///< still source-reachable (faults)
  };

  struct FlowState {
    /// The compiled stream; released on close.
    std::shared_ptr<const StreamTree> tree;
    std::uint64_t tag = 0;
    bool closed = false;
    /// Reduce stream hit a failure in its fused tree; rate pinned to 0
    /// until the recovery pass closes (supersedes) it.
    bool frozen = false;
    /// Some (receiver, chunk) credit was skipped by fault truncation.
    bool short_delivery = false;
    bool active = false;  ///< open, pending non-empty, not frozen

    /// Every directed link the fluid occupies: the compiled forward set,
    /// plus (reduce streams) the reverse of each forward link — the
    /// contributor up-paths that mirror the down-tree.
    std::vector<LinkId> links;
    std::vector<char> link_live;  ///< parallel: on the source-reachable part
    /// Parallel: copies of each chunk the link carries — one per path into
    /// its source, per listing (1 on a tree and on every mirror link).
    std::vector<std::int64_t> link_copies;
    /// chunk -> 1 while the chunk has a positive target (send_chunk until
    /// cancelled): a chunk index is sent at most once per stream.
    std::vector<char> sent;

    std::vector<RecvInfo> recvs;
    /// Reduce streams: the worst-case contributor->pivot pipeline delay
    /// added to every delivery offset.
    SimTime up_offset = 0;

    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    double head_done = 0.0;  ///< bytes of the head chunk already carried
    double rate = 0.0;       ///< allocated rate, bytes/ns
    SimTime last_settle = 0;
    /// Bumped on every rate change / reschedule; a scheduled completion
    /// whose generation no longer matches is stale and ignored.
    std::uint64_t gen = 0;
    bool completion_scheduled = false;
  };

  struct LinkAccum {
    Bytes serialized = 0;      ///< audited lump-sum bytes (chunk completion)
    std::uint64_t segments = 0;
    double util_integral = 0.0;  ///< ∫ allocated rate dt, bytes
    std::vector<StreamId> active;  ///< active flows whose live set has this link
  };

  [[nodiscard]] FlowState& flow(StreamId s) {
    return flows_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const FlowState& flow(StreamId s) const {
    return flows_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t chunk_segments(Bytes bytes) const noexcept {
    return static_cast<std::uint64_t>((bytes + config_.segment_bytes - 1) /
                                      config_.segment_bytes);
  }
  /// Last segment of a chunk (what the per-hop cut-through delay carries).
  [[nodiscard]] Bytes last_segment(Bytes bytes) const noexcept;

  /// Accrues head-chunk progress (and per-link rate integrals) up to `now`.
  void settle(StreamId s, SimTime now);
  /// Adds `bytes` of head-chunk fluid to every live link's rate integral,
  /// once per copy the link carries; negative takes partial progress back.
  void add_fluid(const FlowState& f, double bytes);
  /// Adds/removes `s` from its live links' active lists.
  void attach(StreamId s);
  void detach(StreamId s);
  /// Marks `s` active/inactive and re-solves its component.
  void activate(StreamId s);
  void deactivate(StreamId s);
  /// Re-solves max-min rates for the connected component containing `seed`
  /// (always settles and re-rates `seed` itself, active or not).
  void recompute_component(StreamId seed);
  /// Fitted DCQCN utilization cap for a contended flow.
  [[nodiscard]] double utilization_cap(const FlowState& f) const;
  /// (Re)schedules the head-chunk completion event at the current rate.
  void schedule_completion(StreamId s);
  /// Head chunk of `s` finished: record the audited lump, fire delivery
  /// callbacks at per-receiver offsets, advance the FIFO.
  void complete_head_chunk(StreamId s);
  /// Recomputes the source-reachable live subset of `s`'s links/receivers
  /// after a topology change; adjusts active lists and rate integrals.
  void refresh_live_set(StreamId s);
  /// Smallest line rate over the compiled link set — the pacing fallback
  /// when a fault leaves a flow with no live links (the packet engine's
  /// source keeps injecting into the dead port at line rate).
  [[nodiscard]] double line_rate_floor(const FlowState& f) const;

  const Topology* topo_;
  SimConfig config_;
  EventQueue* queue_;

  std::vector<FlowState> flows_;
  std::vector<LinkAccum> links_;
  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::unique_ptr<Telemetry> telem_;

  // --- solver scratch, reused by every recompute_component call ---------
  /// One stream of the component being solved. Its slots are
  /// member_slots_[slots_begin, slots_end) (empty unless it is active).
  struct Member {
    StreamId stream = -1;
    std::int32_t slots_begin = 0;
    std::int32_t slots_end = 0;
    double fair = -1.0;  ///< max-min share; < 0 until assigned
  };
  /// One link of the component that two or more flows cross: remaining
  /// capacity, the key of its heap entry, flows not yet assigned, its
  /// members slot_members_[members_begin, members_begin + users), and the
  /// last fill level that changed it.
  struct Slot {
    double cap = 0.0;
    double key = 0.0;
    LinkId link = kInvalidLink;
    std::int32_t count = 0;
    std::int32_t users = 0;
    std::int32_t members_begin = 0;
    std::uint32_t touched = 0;
  };
  /// A bottleneck candidate: a slot (index >= 0) or the private link of
  /// member ~index. The heap's top is the lowest (fill, link id).
  struct HeapEntry {
    double fill;
    LinkId link;
    std::int32_t index;
    bool operator<(const HeapEntry& o) const noexcept {
      return fill != o.fill ? fill > o.fill : link > o.link;
    }
  };
  /// Per directed link: its index in slots_ during a solve, -1 otherwise.
  std::vector<std::int32_t> link_slot_;
  /// Per stream: component stamp (epoch-stamped) and index in members_.
  std::vector<std::uint32_t> flow_stamp_;
  std::vector<std::int32_t> flow_member_;
  std::uint32_t flow_epoch_ = 0;
  std::vector<Member> members_;
  std::vector<Slot> slots_;
  std::vector<std::int32_t> slot_members_;  ///< CSR: slot -> member indices
  std::vector<std::int32_t> member_slots_;  ///< CSR: member -> slot indices
  std::vector<HeapEntry> heap_;
  std::vector<std::int32_t> touched_;
  std::vector<std::pair<StreamId, double>> rerated_;
  /// Per node: source-reachability stamp for refresh_live_set.
  std::vector<std::uint32_t> node_stamp_;
  std::uint32_t node_epoch_ = 0;

  std::uint64_t segments_serialized_ = 0;
  std::uint64_t lost_segments_ = 0;
};

}  // namespace peel
