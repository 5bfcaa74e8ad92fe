// Abstract data-plane surface shared by the single-queue Network and the
// pod-sharded engine (src/sim/sharded.h).
//
// The collective control plane (CollectiveRunner) and the fault injector
// drive a simulation exclusively through this interface: open multicast
// streams, feed them chunks, react to deliveries, and propagate topology
// failures. Everything else the Network exposes (counters, telemetry,
// queue access) is engine-specific and stays on the concrete types.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"
#include "src/sim/config.h"
#include "src/topology/topology.h"

namespace peel {

using StreamId = std::int32_t;

/// A transfer program: where data enters, how nodes forward it, who consumes.
struct StreamSpec {
  NodeId source = kInvalidNode;
  /// node -> out-links to replicate onto (oriented away from the source).
  std::unordered_map<NodeId, std::vector<LinkId>> forward;
  /// Endpoints whose deliveries count (over-covered hosts are *not* listed:
  /// they receive bytes but discard silently).
  std::vector<NodeId> receivers;
  CnpMode cnp_mode = CnpMode::ReceiverTimer;
  /// Collective id (or any caller cookie) echoed in delivery events.
  std::uint64_t tag = 0;
  /// Non-empty turns the stream into an in-network *reduction*: every listed
  /// endpoint injects its own copy of each chunk, `forward` is oriented
  /// toward `source` (the reduction root — the stream's only receiver), and
  /// each interior node combines child segments before forwarding upstream.
  std::vector<NodeId> contributors;
};

struct DeliveryEvent {
  StreamId stream = -1;
  std::uint64_t tag = 0;
  NodeId receiver = kInvalidNode;
  int chunk = -1;
};

/// Snapshot of one stream's progress, for stuck-flow diagnostics. Available
/// whether or not telemetry is enabled — it reads the engine's own state.
struct StreamDiagnostic {
  StreamId stream = -1;
  std::uint64_t tag = 0;
  bool closed = false;
  bool pump_blocked = false;    ///< an injector stalled on a full buffer
  bool pump_scheduled = false;  ///< an injector's pump event is in flight
  std::size_t pending_chunks = 0;           ///< chunks not fully injected yet
  Bytes bytes_pending_injection = 0;        ///< of those chunks
  std::size_t incomplete_deliveries = 0;    ///< (receiver, chunk) short of target
};

/// What a collective scheme needs from the simulated fabric. Implemented by
/// Network (single event queue) and ShardedNetwork (one queue per pod
/// domain); the CollectiveRunner and FaultInjector are written against this
/// interface and work unchanged on either engine.
class DataPlane {
 public:
  virtual ~DataPlane() = default;

  /// Invoked whenever a member receiver finishes a chunk.
  virtual void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) = 0;

  /// Every engine validates `spec` in compile_stream (src/sim/stream_tree.h)
  /// and throws std::invalid_argument, consuming no StreamId, on an
  /// out-of-range node or link id, an out-link listed under a node it does
  /// not leave, a source with no out-link, a cycle reachable from the
  /// source, or a reduce stream that is not a tree rooted at `source` with
  /// leaf contributors. Unreached receivers and multicast nodes entered
  /// twice are legal; the byte audit reports them.
  virtual StreamId open_stream(StreamSpec spec) = 0;

  /// Queues `bytes` of chunk `chunk_index` for paced injection at the source.
  /// Chunk indices must be non-negative (they key dense per-receiver state).
  /// A chunk index is sent at most once per stream, so each chunk has one
  /// target: throws std::logic_error, consuming nothing, when the chunk
  /// already has a positive target. A cancelled chunk may be sent again.
  virtual void send_chunk(StreamId stream, int chunk_index, Bytes bytes) = 0;

  /// Removes chunks whose injection has not begun; returns their indices
  /// (used by PEEL+programmable cores to migrate traffic mid-collective).
  /// A closed stream has nothing unsent. Multicast streams only: throws
  /// std::logic_error on an open in-network reduce stream, whose
  /// contributions cannot migrate.
  virtual std::vector<int> cancel_unsent_chunks(StreamId stream) = 0;

  /// Frees a finished stream's bookkeeping (forwarding table, progress).
  virtual void close_stream(StreamId stream) = 0;

  /// Reacts to a mid-run failure of the duplex pair containing `l` (mark the
  /// Topology failed first). Queued and in-flight segments on both
  /// directions are lost; recovery is the collective layer's job.
  virtual void on_duplex_failed(LinkId l) = 0;

  /// Reacts to a mid-run repair of the duplex pair containing `l` (call
  /// Topology::restore_duplex first). New traffic flows immediately;
  /// segments from before the failure stay dead (fail-epoch guard).
  virtual void on_duplex_restored(LinkId l) = 0;

  /// True while `s` is open and its forwarding table replicates onto `l`
  /// (one direction; callers check both directions of a duplex pair).
  [[nodiscard]] virtual bool stream_uses_link(StreamId s,
                                              LinkId l) const = 0;

  /// Progress snapshot for stuck-flow reports (works without telemetry).
  [[nodiscard]] virtual StreamDiagnostic stream_diagnostic(StreamId s) const = 0;

  /// Bytes serialized on one directed link so far.
  [[nodiscard]] virtual Bytes link_bytes(LinkId l) const = 0;
};

}  // namespace peel
