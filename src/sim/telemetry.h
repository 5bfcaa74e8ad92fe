// Telemetry and invariant layer for the packet-level simulator.
//
// The Network calls the passive hooks below on every data-plane transition;
// the Telemetry object turns them into three artifacts:
//
//   1. Counters — per-link (bytes/segments serialized, ECN marks, PFC pauses
//      and total paused time, peak and time-weighted queue depth) and
//      per-switch (the same aggregated over the switch's egress ports, plus
//      shared-buffer peak occupancy), with optional fixed-interval
//      time-series samples of fabric-wide queue state.
//
//   2. A byte ledger per stream — one account table for multicast and
//      in-network reduce streams alike. A multicast is audited as a reduce
//      stream with one contributor (its source) and no combiners. Each
//      row (injector, combiner child link, combiner, receiver) maps a chunk
//      to the bytes it accounted; each chunk has one target. At any time no
//      account may exceed its chunk's target and no receiver may be credited
//      more of a chunk than the least any injector has contributed
//      ("exactly once per destination"); at drain, hop by hop, bytes
//      enqueued on links equal bytes serialized plus bytes lost to failures,
//      and every account of a complete, loss-free stream hits the target.
//
//   3. Trace events — PFC pause spans and CNP emissions (plus flow
//      lifetimes filled in by the harness) for the Chrome-trace exporter in
//      src/sim/trace.h.
//
// All hooks are passive: they never draw randomness, never schedule events
// that change behavior, and never touch stream state — enabling telemetry
// cannot perturb a simulation's results.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/config.h"
#include "src/sim/stream_tree.h"
#include "src/topology/topology.h"

namespace peel {

/// Final per-link counters (one row of the telemetry CSV).
struct LinkTelemetry {
  LinkId link = kInvalidLink;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  LinkKind kind = LinkKind::Fabric;
  Bytes bytes = 0;                 ///< bytes serialized onto the wire
  std::uint64_t segments = 0;      ///< segments serialized
  std::uint64_t ecn_marks = 0;     ///< segments CE-marked at this egress
  std::uint64_t pfc_pauses = 0;    ///< pause transitions of this link's sender
  SimTime pfc_pause_time = 0;      ///< total time spent PFC-paused
  Bytes queue_peak = 0;            ///< egress queue high-water mark
  double mean_queue_bytes = 0.0;   ///< time-weighted average egress depth
};

/// Per-switch counters: the switch's egress ports aggregated, plus shared
/// buffer occupancy.
struct SwitchTelemetry {
  NodeId node = kInvalidNode;
  NodeKind kind = NodeKind::Tor;
  Bytes forwarded_bytes = 0;
  std::uint64_t forwarded_segments = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pfc_pauses = 0;
  SimTime pfc_pause_time = 0;
  Bytes buffer_peak = 0;  ///< shared-buffer occupancy high-water mark
};

/// One fixed-interval sample of fabric-wide queue state.
struct QueueSample {
  SimTime t = 0;
  Bytes total_queued = 0;       ///< sum of all egress queues
  Bytes max_link_queued = 0;    ///< deepest single egress queue
  std::int32_t queued_links = 0;  ///< links with a non-empty egress queue
  std::int32_t paused_links = 0;  ///< links currently PFC-paused
};

/// A closed PFC pause interval on one link (trace export).
struct PauseSpan {
  LinkId link = kInvalidLink;
  SimTime begin = 0;
  SimTime end = 0;
};

/// One CNP emission (trace export).
struct CnpEvent {
  std::int32_t stream = -1;
  NodeId receiver = kInvalidNode;
  SimTime t = 0;
};

/// One collective's lifetime — filled by the harness from CollectiveRecords
/// (the Network does not know about collectives).
struct FlowSpan {
  std::uint64_t id = 0;
  std::string name;  ///< e.g. "PEEL #3"
  SimTime begin = 0;
  SimTime end = 0;
  bool finished = false;
};

/// Everything a finished run's telemetry boils down to; cheap to copy around
/// via shared_ptr in ScenarioResult.
struct TelemetrySummary {
  SimTime duration = 0;
  std::vector<LinkTelemetry> links;
  std::vector<SwitchTelemetry> switches;
  std::vector<QueueSample> samples;
  std::vector<PauseSpan> pauses;
  std::vector<CnpEvent> cnps;
  std::vector<FlowSpan> flows;
};

class Telemetry {
 public:
  Telemetry(const TelemetryConfig& config, const Topology& topo);

  // --- hooks (called by Network; see network.cpp) -------------------------
  /// Opens the stream's ledger with a row per injector of `tree` and per
  /// receiver in `receivers`, the subset of tree.receivers this engine
  /// tracks (a sharded replica's own).
  void on_stream_open(std::int32_t stream, const StreamTree& tree,
                      std::span<const NodeId> receivers);
  /// The bytes every injector owes of `chunk` and every receiver is owed
  /// (send_chunk); 0 cancels the chunk (cancel_unsent_chunks).
  void on_chunk_target(std::int32_t stream, int chunk, Bytes bytes);
  /// The injector at `node` put `bytes` of `chunk` into the fabric (counted
  /// once, before replication onto a multicast source's out-links).
  void on_contribute(std::int32_t stream, NodeId node, int chunk, Bytes bytes);
  void on_enqueue(LinkId l, std::int32_t stream, Bytes bytes, Bytes new_depth,
                  SimTime now);
  void on_ecn_mark(LinkId l);
  void on_serialized(LinkId l, std::int32_t stream, Bytes bytes,
                     Bytes new_depth, SimTime now);
  /// A queued segment dropped by a mid-run duplex failure.
  void on_queue_drop(LinkId l, std::int32_t stream, Bytes bytes,
                     Bytes new_depth, SimTime now);
  /// A segment lost on the wire (arrived over a link that died in flight).
  void on_wire_drop(std::int32_t stream, Bytes bytes);
  /// A segment bound for a dead egress port (never enqueued).
  void on_ingress_drop(std::int32_t stream, Bytes bytes);
  void on_pause(LinkId l, SimTime now);
  void on_unpause(LinkId l, SimTime now);
  void on_node_buffer(NodeId n, Bytes depth);
  void on_cnp(std::int32_t stream, NodeId receiver, SimTime now);
  /// Bytes of `chunk` credited to `receiver` (a member of the stream's
  /// receiver set).
  void on_deliver(std::int32_t stream, NodeId receiver, int chunk, Bytes bytes);
  /// Stream closed by its owner. `complete` = every (receiver, chunk) had
  /// reached its target. Closing an incomplete stream is a deliberate
  /// hand-off (the collective finished through other streams, e.g. recovery
  /// racing the original tree), so such streams are exempt from the
  /// under-delivery check — over-delivery and hop conservation still apply.
  void on_stream_close(std::int32_t stream, bool complete);

  // A reduce stream's combiners merge k child segments into one, so each
  // child link into a combiner and each combiner's output keeps its own
  // row, held to the same per-chunk target as every other account.
  /// A combiner absorbed `bytes` of `chunk` over child link `l`.
  void on_reduce_absorb(std::int32_t stream, LinkId l, int chunk, Bytes bytes);
  /// Combiner at `node` advanced `chunk`'s combined frontier by `bytes`
  /// (forwarded upstream, or credited to the root when `node` is the root).
  void on_reduce_emit(std::int32_t stream, NodeId node, int chunk, Bytes bytes);

  /// Records one QueueSample at `now` (driven by the Network's sampler).
  void sample(SimTime now);

  /// Capacity hint for the queue-depth time series. A sampler that fires
  /// every interval for the whole run otherwise reallocates-and-copies the
  /// series log2(n) times; a caller that knows the horizon (the harness)
  /// reserves once up front. A hint, never a cap.
  void reserve_series(std::size_t expected_samples) {
    samples_.reserve(expected_samples);
  }

  // --- invariants ---------------------------------------------------------
  /// Ledger accounts past their bound: any account holding more of a chunk
  /// than its target, or a receiver credited more than the least any
  /// injector contributed. Always a bug (duplicate replication, a double
  /// contribution or combine), valid at any point in the run. One entry per
  /// offending account and chunk.
  [[nodiscard]] std::vector<std::string> over_delivery_violations() const;

  /// Full byte-conservation report. Only meaningful once the event queue has
  /// drained and every collective finished: per stream, (a) bytes enqueued
  /// on links == bytes serialized + bytes dropped from queues by failures
  /// (hop-by-hop replication accounted, no residue stuck in queues), and
  /// (b) for every chunk with a positive target, every injector and
  /// receiver account, and every child-link and combiner account the run
  /// touched, holds exactly the target — unless the stream lost segments to
  /// failures or its owner closed it incomplete, in which case only the
  /// over-bound check counts. Includes over_delivery_violations(). Empty ==
  /// audit passed.
  [[nodiscard]] std::vector<std::string> conservation_violations() const;

  /// Snapshot of all counters with time-weighted values closed out at `now`
  /// (open pause intervals are accounted up to `now`). `flows` is left empty
  /// for the harness to fill.
  [[nodiscard]] TelemetrySummary summary(SimTime now) const;

  /// Folds another Telemetry (same config, same topology) into this one.
  ///
  /// The sharded engine runs one Telemetry per pod domain; each accumulator
  /// field has exactly one writing domain (link serializer counters live in
  /// the link's src domain, PFC pause spans in the buffer-owning dst domain,
  /// each ledger account in its injector's, combiner's or receiver's
  /// domain), so summing is exact, peaks merge by max, and closed_incomplete
  /// flags OR together.
  /// Queue-depth samples merge by timestamp; trace events concatenate in the
  /// caller's (domain-id) order. Call on a fresh instance, folding domains
  /// in ascending id order, to get a summary equivalent to a single global
  /// Telemetry's.
  void merge_from(const Telemetry& other);

 private:
  struct LinkAccum {
    Bytes bytes = 0;
    std::uint64_t segments = 0;
    std::uint64_t ecn_marks = 0;
    std::uint64_t pfc_pauses = 0;
    SimTime pause_time = 0;
    SimTime pause_begin = -1;  ///< -1 when not currently paused
    Bytes depth = 0;           ///< mirror of the egress queue depth
    Bytes peak = 0;
    double depth_integral = 0.0;  ///< ∫ depth dt, for time-weighted average
    SimTime last_change = 0;
  };

  struct NodeAccum {
    Bytes buffer_peak = 0;
  };

  /// A ledger row's kind, in the order violations list them.
  enum class Account : std::uint8_t { Injector, ChildLink, Combiner, Receiver };
  /// (kind, node — or link for a child link).
  using Row = std::pair<Account, std::int32_t>;
  static const char* account_name(Account kind);

  struct StreamAccum {
    std::uint64_t tag = 0;
    /// chunk -> bytes each injector owes and each receiver is owed; 0 = not
    /// sent, or cancelled.
    std::vector<Bytes> target;
    /// row -> chunk -> bytes accounted. Every injector and tracked receiver
    /// has a row from on_stream_open on; combiner rows appear when used.
    std::map<Row, std::vector<Bytes>> accounts;
    Bytes enqueued = 0;
    Bytes serialized = 0;
    Bytes lost_queued = 0;   ///< dropped from queues by failures
    Bytes lost_wire = 0;     ///< lost in flight on a dying link
    Bytes lost_ingress = 0;  ///< bound for an already-dead port
    /// Owner closed the stream before every delivery completed (superseded
    /// by another stream); exempts it from the under-delivery check.
    bool closed_incomplete = false;

    void credit(Row row, int chunk, Bytes bytes) {
      std::vector<Bytes>& cells = accounts[row];
      const auto c = static_cast<std::size_t>(chunk);
      if (cells.size() <= c) cells.resize(c + 1, 0);
      cells[c] += bytes;
    }
  };

  void advance_depth(LinkAccum& a, Bytes new_depth, SimTime now);
  [[nodiscard]] StreamAccum& stream(std::int32_t s);

  TelemetryConfig config_;
  const Topology* topo_;
  std::vector<LinkAccum> links_;
  std::vector<NodeAccum> nodes_;
  std::vector<StreamAccum> streams_;
  std::vector<QueueSample> samples_;
  std::vector<PauseSpan> pauses_;
  std::vector<CnpEvent> cnps_;
};

}  // namespace peel
