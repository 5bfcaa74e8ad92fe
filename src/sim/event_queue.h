// Discrete-event engine: a time-ordered queue of callbacks.
//
// Events at equal timestamps run in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation run
// deterministic for a fixed seed.
//
// Two scheduling flavors share one sequence counter, so their relative order
// is exactly the scheduling order:
//
//   - `at(t, Action)` boxes an arbitrary callback in a std::function. Fine
//     for control-plane events (collective submission, fault injection,
//     recovery passes), which are rare. Closures live in a small side heap.
//   - `at(t, SimEvent)` carries a type-tagged POD describing one of the
//     data-plane transitions and dispatches it to the bound SimEventSink
//     (the Network). The steady state of a simulation is millions of pump /
//     finish_tx / arrive events; scheduling them as PODs performs no heap
//     allocation and no std::function indirection on the hot path.
//
// POD storage is a ladder (calendar) queue instead of one global binary
// heap:
//
//   - `cur_` is the active window [now, window_end): the rung the clock
//     reached, sorted once by (t, seq), latest first, when advance() opens
//     it. step() pops the earliest entry off its back() in O(1).
//   - `late_` is a min-heap for entries filed into the open window after it
//     was sorted: after(0) pumps and delays shorter than the rest of the
//     bucket. It holds only those, so an insert costs O(log late), not the
//     O(n) shift that keeping a dense rung sorted would cost. The next
//     event is the earlier of cur_.back() and late_.front().
//   - `rungs_` is a ring of kBuckets fixed-width buckets covering
//     [window_end, window_end + kBuckets << shift). Scheduling into a bucket
//     is an O(1) push_back; a bucket is sorted only when the clock reaches
//     it and both window tiers are empty (advance()).
//   - `overflow_` holds everything past the ladder, unsorted. When the
//     ladder drains, rebase() re-centers it on the overflow span, widening
//     the bucket stride (shift_) until the span fits — correctness never
//     depends on the bucket width, only the constant factors do.
//
// Every tier orders by the same (t, seq) key, so firing order is identical
// to the single-heap implementation this replaced (the byte-identical CSV
// gate, csv_gate_test, and the thread-invariance tests enforce that).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"

namespace peel {

/// Type tag of a packed data-plane event (see SimEvent).
enum class SimEventKind : std::uint8_t {
  None = 0,   ///< entry carries a boxed Action instead
  Pump,       ///< inject the next paced segment of stream `a`, injector
              ///< `b`; with `flag` set, wake the `b` injectors a
              ///< backpressure release at node `a` woke instead (one event
              ///< per release; they are the node's first pending window)
  FinishTx,   ///< link `a` finished serializing its head segment; `b`
              ///< is its state slot in the domain's Network (epoch)
  Arrive,     ///< segment (stream b, chunk c, bytes d, marked flag) reaches
              ///< link `a`'s far end, stream b's tree node e (epoch)
  CnpRate,    ///< congestion notification reaches stream `a`'s sender
  SampleTick, ///< telemetry time-series sampler
  PfcPause,   ///< cross-domain PFC pause frame reaches link `a`'s sender
              ///< (sharded engine only; epoch guards stale frames)
  PfcResume,  ///< cross-domain PFC resume frame reaches link `a`'s sender
  ReduceEmit, ///< combiner `b` of reduce stream `a` forwards `d` combined
              ///< bytes of chunk `c` upstream (scheduled combine_latency
              ///< after the last expected child byte arrived; marked flag)
  Deliver,    ///< receiver `b` got all of chunk `c` of stream `a`: replayed
              ///< on the sharded engine's control queue, never a Network's
};

/// Packed arguments of one hot data-plane event. Field meaning is
/// kind-specific (documented at SimEventKind); the struct is deliberately a
/// flat POD so scheduling one never touches the heap.
struct SimEvent {
  SimEventKind kind = SimEventKind::None;
  bool flag = false;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
  std::int32_t e = 0;
  std::uint32_t epoch = 0;
};

/// Receiver of packed SimEvents (implemented by the Network). Exactly one
/// sink can be bound to an EventQueue at a time.
class SimEventSink {
 public:
  virtual ~SimEventSink() = default;
  virtual void on_sim_event(const SimEvent& ev) = 0;
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  void at(SimTime t, Action fn);

  /// Schedules `fn` `delay` nanoseconds from now.
  void after(SimTime delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules a packed data-plane event at absolute time `t`. A sink must
  /// be bound (bind_sink) before the event fires.
  void at(SimTime t, const SimEvent& ev) {
    check_not_past(t);
    push(PodEntry{t, next_seq_++, ev});
  }

  void after(SimTime delay, const SimEvent& ev) { at(now_ + delay, ev); }

  /// Draws the sequence number the next at() would draw, for an event whose
  /// fate is decided later (the sharded engine holds a CNP until the
  /// mailbox merge). Until at(t, seq, ev) or skip(t, seq) settles it, the
  /// reservation keeps empty() false and counts in pending(), exactly as
  /// the event scheduled now would have.
  std::uint64_t reserve_seq() noexcept {
    ++reserved_;
    return next_seq_++;
  }

  /// Schedules `ev` at (t, seq), settling the reservation `seq` drawn by
  /// reserve_seq(): it fires where an at(t, ev) made at reservation time
  /// would have fired.
  void at(SimTime t, std::uint64_t seq, const SimEvent& ev) {
    check_not_past(t);
    settle_reservation();
    push(PodEntry{t, seq, ev});
  }

  /// Takes the slot of an event at absolute time `t` that the caller has
  /// proved would do nothing when it fired (the Network: a CNP its sender's
  /// guard timer will swallow). Nothing is stored and nothing runs, and
  /// processed() never counts the slot, but it draws a sequence number and
  /// stays pending until an event ordered after its (t, seq) key runs: it
  /// keeps empty() false, counts in pending(), is what next_event_time()
  /// reports when it is earliest, and when nothing else is left, one step()
  /// moves the clock to `t`. So the drain clock, every empty() /
  /// pending() > 0 reading and every window the sharded engine opens are
  /// exactly what scheduling the event would have given.
  void skip(SimTime t);

  /// skip() for the reservation `seq` drawn by reserve_seq(). Slots are
  /// kept in a FIFO, so keys must come in non-decreasing (t, seq) order;
  /// an earlier key than the last pending slot's throws std::logic_error.
  void skip(SimTime t, std::uint64_t seq);

  /// Binds the dispatcher for SimEvents (the Network binds itself on
  /// construction). Pass nullptr to unbind.
  void bind_sink(SimEventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] SimEventSink* sink() const noexcept { return sink_; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept {
    return pod_count_ == 0 && acts_.empty() && skip_head_ == skips_.size() &&
           reserved_ == 0;
  }
  /// Scheduled events, skipped slots and open reservations, each counted
  /// once.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pod_count_ + acts_.size() + (skips_.size() - skip_head_) +
           reserved_;
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Runs the earliest event (when only skipped slots are left, moves the
  /// clock to the earliest and drops it instead); returns false if nothing
  /// but open reservations is left.
  bool step();

  /// Runs events until the queue drains.
  void run();

  /// Runs events with timestamps <= `t` (dropping slots up to `t`), then
  /// advances the clock to `t`.
  void run_until(SimTime t);

  /// Earliest pending timestamp across every tier, skipped slots included;
  /// false when nothing is scheduled. (The sharded engine's window loop
  /// takes the min over all domain queues.)
  [[nodiscard]] bool next_event_time(SimTime& t) {
    const bool any = peek_next(t);
    if (skip_head_ == skips_.size()) return any;
    const SimTime slot = skips_[skip_head_].t;
    if (!any || slot < t) t = slot;
    return true;
  }

  /// Runs events with timestamps strictly BEFORE `end` (a conservative PDES
  /// window), then drops the slots before `end`, leaving the clock at the
  /// last processed event or dropped slot, whichever is ordered later. Unlike
  /// run_until, the clock is NOT advanced to the horizon — events may still
  /// arrive inside [now, end) from another domain's mailbox drain.
  void run_window(SimTime end);

  /// Moves the clock forward to `t` without running anything. Precondition:
  /// no pending event is earlier than `t` (the caller knows a global bound,
  /// e.g. the sharded engine's window minimum). A no-op when t <= now().
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  /// Hot-tier entry: 48 bytes, trivially copyable — a sort or heap move is
  /// a plain memcpy-class move, unlike the retired Entry that dragged a dead
  /// std::function through every swap.
  struct PodEntry {
    SimTime t;
    std::uint64_t seq;
    SimEvent ev;
  };
  struct PodLater {
    bool operator()(const PodEntry& a, const PodEntry& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  struct ClosureEntry {
    SimTime t;
    std::uint64_t seq;
    Action fn;
  };
  struct ClosureLater {
    bool operator()(const ClosureEntry& a,
                    const ClosureEntry& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static constexpr int kBuckets = 512;  // power of two (ring indexing)
  static constexpr int kBucketMask = kBuckets - 1;
  /// Default bucket stride: 2^6 ns = 64 ns per bucket, ~33 µs ladder span.
  /// Tuned on a k=16 Peel Broadcast cell: segment serialization and
  /// propagation delays (0.1–5 µs) land in rungs as O(1) push_backs instead
  /// of late_ heap sifts; slower timers (telemetry sampler, throttled
  /// pacing) overflow and are folded back in by the periodic rebase.
  static constexpr int kDefaultShift = 6;

  void check_not_past(SimTime t) const;
  /// skip()'s preconditions: `t` not in the past, and (t, seq) not ordered
  /// before the last pending slot.
  void check_skip(SimTime t, std::uint64_t seq) const;
  /// Ends one reservation (at(t, seq, ev) / skip(t, seq)); throws
  /// std::logic_error when none is open.
  void settle_reservation();
  /// Files a POD entry into its tier.
  void push(const PodEntry& entry) {
    ++pod_count_;
    if (pod_count_ > 1 && entry.t < window_end_) {
      late_.push_back(entry);
      std::push_heap(late_.begin(), late_.end(), PodLater{});
    } else {
      insert_slow(entry);
    }
  }
  /// The earliest POD entry, the back of cur_ or the top of late_, after
  /// opening the next rung when both are spent; nullptr when no POD entry
  /// is pending.
  const PodEntry* pod_front() {
    if (pod_count_ == 0) return nullptr;
    if (cur_.empty() && late_.empty()) advance();
    if (late_.empty()) return &cur_.back();
    if (cur_.empty() || PodLater{}(cur_.back(), late_.front())) {
      return &late_.front();
    }
    return &cur_.back();
  }
  /// Cold insert paths: first pod (ladder reset), rung push, or overflow.
  void insert_slow(const PodEntry& entry);
  /// Refills cur_ from the next non-empty rung (rebasing from overflow when
  /// the ladder is empty) and sorts it. Precondition: cur_ and late_ empty,
  /// pod_count_ > 0.
  void advance();
  /// Re-centers the ladder on the overflow span. Precondition: cur_, late_
  /// and all rungs empty, overflow_ non-empty.
  void rebase();
  /// Earliest pending timestamp of a real event; false when there is
  /// none. May open (sort) a rung.
  bool peek_next(SimTime& t);
  /// Drops the skipped slots ordered before the event about to run, keyed
  /// (t, seq): their turn has passed.
  void pass_skipped(SimTime t, std::uint64_t seq) {
    if (skip_head_ != skips_.size()) drop_skips_before(t, seq);
  }
  void drop_skips_before(SimTime t, std::uint64_t seq);
  /// Pops the front slot; compacts the consumed prefix the way a link's
  /// egress FIFO is compacted.
  SimTime pop_skip();

  // POD tiers. Invariants while pod_count_ > 0:
  //   cur_, late_     : t < window_end_
  //   rung entries    : window_end_ <= t < bucket_hi_ << shift_
  //                     in rung (t >> shift_) & kBucketMask
  //   overflow entries: t >= bucket_hi_ << shift_
  // so pod_front() is the global POD minimum.
  // bucket_hi_ is pinned between rebases: the ladder frontier must NOT
  // slide forward as bucket_lo_ advances, or a fresh rung insert could land
  // past an entry already parked in overflow and fire before it.
  std::vector<PodEntry> cur_;   ///< sorted by (t, seq), latest first
  std::vector<PodEntry> late_;  ///< min-heap (PodLater)
  std::array<std::vector<PodEntry>, kBuckets> rungs_;
  std::vector<PodEntry> overflow_;
  std::size_t pod_count_ = 0;
  std::size_t rung_count_ = 0;
  int shift_ = kDefaultShift;
  std::int64_t bucket_lo_ = 0;   ///< first rung's absolute bucket number
  std::int64_t bucket_hi_ = 0;   ///< ladder frontier (absolute bucket number)
  SimTime window_end_ = 0;       ///< cur_, late_ cover [now, window_end_)

  /// Control-plane closures: rare, so a plain binary heap is fine.
  std::vector<ClosureEntry> acts_;

  /// Skipped slots (see skip()), a FIFO in (t, seq) order via skip_head_.
  struct SlotKey {
    SimTime t;
    std::uint64_t seq;
  };
  std::vector<SlotKey> skips_;
  std::size_t skip_head_ = 0;
  /// Sequence numbers drawn by reserve_seq() and not yet settled.
  std::size_t reserved_ = 0;

  SimEventSink* sink_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace peel
