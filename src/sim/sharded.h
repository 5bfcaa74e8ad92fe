// Pod-sharded simulation engine: conservative parallel discrete-event
// execution over the pod decomposition of a topology (src/topology/shard_plan.h).
//
// ## Execution model
//
// The fabric is split into one *domain* per pod plus one for the core tier
// (pod < 0). Each domain runs its own Network and EventQueue, and its
// Network holds state only for what the domain owns (src/sim/network.h,
// "State tables"), so the engine's fabric state is O(fabric) in total, not
// O(domains x fabric):
//
//   - a link's serializer (egress queue, busy/blocked/pause bits, counters,
//     FinishTx) runs in the domain of the link's *source* node;
//   - a node's shared buffer, per-ingress accounting, blocked pumps and
//     Arrive handling run in the node's domain, which also keeps the
//     receive side of each link entering it from another domain: its fail
//     epoch and the mirror of its PFC pause bit;
//   - a stream injector's pump and congestion-control state run in its
//     node's domain (a multicast's one injector is its source; a reduce
//     stream has one per contributor); per-receiver delivery progress runs
//     in each receiver's domain.
//
// A stream takes its id from this engine's one counter and opens a replica
// only in the domains it touches; every replica reads its one compiled tree
// and one ChunkTable (src/sim/stream_tree.h). A control step checks and
// records a send or a cancel there once, and only injector replicas queue
// it; domain threads only read the table, during windows.
//
// ShardPlan numbers each domain's nodes and links densely, once, in maps
// that all domains share. A link failure or repair reaches only the one or
// two domains that hold state for the link. Per-domain Telemetry, when it is
// on, is still fabric-sized (src/sim/telemetry.h); the merged view sums the
// domains.
//
// Exactly three event kinds can cross a domain boundary, and each carries a
// physical delay of at least one cross-domain link propagation:
//
//   - Arrive over a cross-domain link (delay = that link's propagation),
//   - CnpRate back to the sender (delay = SimConfig::cnp_delay, validated
//     against the lookahead at construction),
//   - PfcPause / PfcResume frames from the buffer-owning mirror side to the
//     serializer-owning side (delay = the ingress link's propagation).
//
// In-network reduce streams introduce no fourth kind: each contributor's
// injector paces in its domain, a combiner's absorb/emit runs in its node's
// domain (ReduceEmit schedules on the local queue and the links it emits on
// originate at that node), and only the Arrive hops between them cross.
//
// That minimum — the smallest propagation over cross-domain links — is the
// conservative lookahead L. The engine repeatedly: finds the global minimum
// pending timestamp W; if a control-plane closure is due at W it runs it
// sequentially (with every domain clock advanced to W); otherwise it runs
// every busy domain up to the horizon min(W + L, next control event) —
// the workers and the coordinator claim busy domains from one atomic
// ticket — barriers, then drains the per-domain-pair mailboxes into the
// destination queues and schedules each collected delivery on the control
// queue as a packed Deliver event, which the engine's own sink hands to the
// delivery handler when it fires.
//
// CNPs are admitted at the merge. A CNP the sender's guard timer will
// swallow changes nothing when it fires (src/sim/dcqcn.h), so like the solo
// engine this one only takes its slot in the queue (EventQueue::skip). A
// CNP's arrival order at its injector is known only once the mailboxes are
// merged, so every CNP, local or remote, is held with the sequence number
// its queue would have given it — reserved when a local one is posted, in
// drain order for a remote one — and drain_windows sorts each
// destination's CNPs by (t, seq) and admits them in that order. This is
// exact because cnp_delay >= L: a CNP posted in a window arrives after its
// horizon, and each window's CNPs arrive after the previous window's.
//
// ## Determinism
//
// The domain decomposition is a pure function of the topology — the
// `threads` knob only sets how many workers execute the (fixed) domains, so
// results are byte-identical at any thread count:
//
//   - within a domain, the EventQueue's (t, seq) order is untouched;
//   - mailboxes drain in destination-major, source-domain-minor, FIFO order,
//     so the destination queue's sequence counter encodes exactly the
//     (t, source domain, seq) cross-domain merge rule;
//   - delivery callbacks replay on the control queue in (window, domain id,
//     collection order), and every domain RNG is seeded from the scenario
//     seed and its domain id alone.
//
// Relative to the single-queue engine the *timing* differs slightly — PFC
// frames and delivery notifications carry real wire delays that the solo
// engine applies instantaneously — so the sharded engine is selected
// explicitly (ScenarioConfig::shards > 0), never silently.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/topology/shard_plan.h"

namespace peel {

class ShardedNetwork final : public DataPlane {
 public:
  /// `threads` >= 1 is the worker count — an execution knob only (clamped to
  /// the domain count). Throws std::invalid_argument when the topology's
  /// cross-domain structure defeats conservative execution (a cross-domain
  /// link with zero propagation, or cnp_delay below the lookahead).
  ShardedNetwork(const Topology& topo, const SimConfig& config, int threads);
  ~ShardedNetwork() override;

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

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
  [[nodiscard]] Bytes link_bytes(LinkId l) const override;

  // --- engine surface (mirrors EventQueue/Network for the harness) --------
  /// Control-plane queue: collective submissions, fault events, recovery
  /// timers, and replayed delivery callbacks. Closures scheduled here run
  /// sequentially between parallel windows, with every domain clock advanced
  /// to the closure's timestamp first.
  [[nodiscard]] EventQueue& control() noexcept { return control_; }

  /// Runs until every domain queue and the control queue drain, then
  /// advances all clocks to now().
  void run();
  /// Runs events with timestamps <= `t`, then advances all clocks to `t`.
  void run_until(SimTime t);

  [[nodiscard]] bool empty() const;
  /// Latest clock across the control queue and all domains.
  [[nodiscard]] SimTime now() const;
  /// Total events processed across the control queue and all domains.
  [[nodiscard]] std::uint64_t events_processed() const;

  /// Adaptive-window execution counters. Dense control planes (fault
  /// storms, churny workloads) clamp every advance window to the next
  /// control event, so windows shrink until most hold events in a single
  /// domain; such a window runs inline on the coordinator thread
  /// (`windows_inline`) instead of paying a pool barrier round-trip, while
  /// multi-domain windows still fan out (`windows_parallel`). Diagnostics
  /// only — the split never changes results: a skipped domain's
  /// run_window would process nothing.
  [[nodiscard]] std::uint64_t windows_inline() const noexcept {
    return windows_inline_;
  }
  [[nodiscard]] std::uint64_t windows_parallel() const noexcept {
    return windows_parallel_;
  }

  /// Rate controller of stream `s`'s first injector, read from the replica
  /// that paces it (Network::stream_cc).
  [[nodiscard]] const Dcqcn& stream_cc(StreamId s) const {
    const StreamInfo& info = streams_[static_cast<std::size_t>(s)];
    return domains_[static_cast<std::size_t>(info.injector_domain.front())]
        ->net->stream_cc(s);
  }

  // --- merged counters (sums / maxima over the domains) -------------------
  [[nodiscard]] std::uint64_t segments_serialized() const;
  [[nodiscard]] std::uint64_t segments_marked() const;
  [[nodiscard]] std::uint64_t pfc_pauses() const;
  [[nodiscard]] std::uint64_t segments_lost() const;
  /// Sum of per-domain combining-SRAM high-water marks. Combining state is
  /// domain-local (a combiner's arrivals and emits all run in its node's
  /// domain), so each domain's gauge peaks independently; the sum is an
  /// UPPER BOUND on the fabric-wide SRAM demand — the domains need not peak
  /// at the same instant, so the sum overstates what a single fabric-wide
  /// gauge (the solo engine's reduce_sram_peak) would read. Not
  /// shard-invariant. Use reduce_sram_peak_max_domain for a figure that is
  /// comparable across engines.
  [[nodiscard]] Bytes reduce_sram_peak() const;
  /// Largest single-domain combining-SRAM high-water mark — a LOWER BOUND on
  /// the fabric-wide peak (the true peak is at least the hottest domain's).
  /// This is the per-switch-budget-relevant figure: no individual switch ever
  /// held more than its domain's gauge, so solo and sharded cells can be
  /// compared on it (solo's single gauge lies in [max_domain, sum]).
  [[nodiscard]] Bytes reduce_sram_peak_max_domain() const;

  // --- telemetry ----------------------------------------------------------
  [[nodiscard]] bool telemetry_enabled() const;
  /// Forwards the series capacity hint to every domain's Telemetry.
  void reserve_series(std::size_t expected_samples);
  /// Merged cross-domain Telemetry (audit + summary); nullptr when disabled.
  /// Materialized on call — use after the run has quiesced, and reuse the
  /// returned pointer rather than calling repeatedly. Valid until the next
  /// call or destruction.
  [[nodiscard]] const Telemetry* merged_telemetry() const;

 private:
  struct DomainHook final : public CrossDomainHook {
    ShardedNetwork* owner = nullptr;
    int domain = -1;
    bool post(SimTime t, const SimEvent& ev) override;
  };

  /// The control queue's sink: hands a replayed Deliver event to the
  /// delivery handler (control-plane closures run through the queue's
  /// closure tier as usual).
  struct DeliverySink final : public SimEventSink {
    ShardedNetwork* owner = nullptr;
    void on_sim_event(const SimEvent& ev) override;
  };

  struct Mail {
    SimTime t;
    SimEvent ev;
  };

  /// A CnpRate awaiting merge-time admission, with the sequence number its
  /// destination queue reserved for it (at post time for a local CNP, at
  /// the mailbox merge for a remote one).
  struct HeldCnp {
    SimTime t;
    std::uint64_t seq;
    SimEvent ev;
  };

  struct Domain {
    EventQueue queue;
    std::unique_ptr<Network> net;  // after queue: destroyed first (unbinds)
    DomainHook hook;
    /// outbox[dst]: cross-domain events generated here this window. Written
    /// only by the thread executing this domain; drained at the barrier.
    std::vector<std::vector<Mail>> outbox;
    /// CNPs bound for this domain's injectors this window: local ones are
    /// added by this domain's thread as they are posted, remote ones by
    /// drain_windows, which then admits them all.
    std::vector<HeldCnp> cnps;
    /// Deliveries fired inside this domain this window, in firing order,
    /// as Deliver events stamped with their firing time.
    std::vector<Mail> deliveries;
    /// A throw inside run_window, surfaced after the barrier.
    std::exception_ptr error;
  };

  struct StreamInfo {
    int src_domain = -1;
    /// The spec's tag, for the DeliveryEvents the control sink rebuilds.
    std::uint64_t tag = 0;
    /// The stream's one chunk table (in chunk_tables_), read by every
    /// replica.
    ChunkTable* chunks = nullptr;
    /// Domains holding a replica, ascending.
    std::vector<int> footprint;
    /// Injector index -> owning domain (CnpRate events carry the injector
    /// index, not a node): {src_domain} for a multicast's one injector, one
    /// entry per contributor for a reduce stream. Each replica opens with
    /// the mask "injector_domain[i] == my domain" (Network::open_replica).
    std::vector<int> injector_domain;
  };

  /// Routes a hook-posted event: false = local to `from` (schedule there),
  /// true = captured into from's outbox for another domain, or (a local
  /// CNP) held in from's CNP list for merge-time admission.
  bool route(int from, SimTime t, const SimEvent& ev);
  /// Applies a fault handler to the domains holding state for the duplex
  /// pair of `l`: the domains of its two ends.
  void on_pair_ends(LinkId l, void (Network::*apply)(LinkId));
  /// Window loop shared by run() / run_until().
  void advance(bool bounded, SimTime deadline);
  /// Runs every busy domain up to `horizon`: the workers and the
  /// coordinator claim them from one ticket (inline with one worker).
  void run_domains(SimTime horizon);
  /// Claims busy domains off the ticket and runs each to horizon_ until
  /// none is left; a throw is parked in the domain's `error`.
  void run_claimed();
  /// Moves outbox mail into destination queues (dst-major, src-minor, FIFO),
  /// admits each destination's CNPs in firing order, and schedules collected
  /// deliveries on the control queue at t + lookahead.
  void drain_windows();
  void worker_main();

  const Topology* topo_;
  /// Shared with every domain's Network (their slot maps).
  std::shared_ptr<const ShardPlan> plan_;
  SimConfig config_;
  int domain_total_ = 0;
  SimTime xdelay_ = 0;  ///< conservative lookahead; 0 = no cross-domain links

  /// Every stream's chunk table, by stream id; a deque, so that the tables
  /// stay where the replicas point, and declared before domains_ to outlive
  /// them.
  std::deque<ChunkTable> chunk_tables_;
  std::vector<std::unique_ptr<Domain>> domains_;
  EventQueue control_;
  DeliverySink delivery_sink_;
  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::vector<StreamInfo> streams_;

  // Worker pool: generation-counted start barrier + cumulative completion
  // counter. Workers spin (with yield back-off) because windows are short —
  // a condvar round-trip per window would dominate small fabrics. A window's
  // work list is busy_, claimed entry by entry from next_busy_ by every
  // worker and the coordinator: a domain's window touches only its own
  // queue, outbox row, CNP list and delivery list, so who runs it cannot
  // change a result.
  int workers_ = 1;
  std::vector<std::thread> threads_;
  std::vector<int> busy_;  ///< domains with work before this window's horizon
  std::atomic<std::size_t> next_busy_{0};
  std::atomic<std::uint64_t> go_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  std::uint64_t windows_issued_ = 0;
  SimTime horizon_ = 0;  ///< published before each go_ bump
  std::uint64_t windows_inline_ = 0;    ///< single-domain windows, no barrier
  std::uint64_t windows_parallel_ = 0;  ///< windows run through run_domains

  mutable std::unique_ptr<Telemetry> merged_telem_;
};

}  // namespace peel
