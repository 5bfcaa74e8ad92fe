// Ladder-scheduler tests: the (t, seq) total order across every storage tier
// of the EventQueue — active heap, rungs, overflow, and the closure side
// heap. The data-plane determinism gate (csv_gate_test) would catch a
// global ordering break eventually; these tests pin the contract at the unit
// level, including the tier-boundary cases a scenario may not visit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace peel {
namespace {

/// Records the `a` field of every fired SimEvent, optionally running a
/// caller-supplied reaction (to schedule follow-up events from inside the
/// dispatch, as the Network does).
struct RecordingSink final : SimEventSink {
  std::vector<std::int32_t> fired;
  std::function<void(const SimEvent&)> react;

  void on_sim_event(const SimEvent& ev) override {
    fired.push_back(ev.a);
    if (react) react(ev);
  }
};

SimEvent labeled(std::int32_t label) {
  SimEvent ev;
  ev.kind = SimEventKind::Pump;
  ev.a = label;
  return ev;
}

// Equal timestamps run in scheduling order even when the entries alternate
// between the POD ladder and the closure side heap — the two flavors share
// one sequence counter, and that counter is the tie-break.
TEST(EventQueueLadder, EqualTimestampFifoAcrossClosureAndPodTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  std::vector<std::int32_t> order;  // closures append here, PODs to the sink

  q.at(50, labeled(0));
  q.at(50, [&] { order.push_back(1); });
  q.at(50, labeled(2));
  q.at(50, [&] { order.push_back(3); });
  q.at(50, labeled(4));
  // An earlier event scheduled later still fires first.
  q.at(10, [&] { order.push_back(-1); });

  // Merge both recorders through a shared log: replay deterministically by
  // stepping one event at a time and noting which recorder grew.
  std::vector<std::int32_t> merged;
  std::size_t seen_pod = 0, seen_act = 0;
  while (q.step()) {
    if (sink.fired.size() > seen_pod) merged.push_back(sink.fired[seen_pod++]);
    if (order.size() > seen_act) merged.push_back(order[seen_act++]);
  }
  EXPECT_EQ(merged, (std::vector<std::int32_t>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 6u);
}

// Regression for the pinned-frontier invariant: an entry parked in overflow
// must fire before any LATER entry, even when the ladder's low edge has
// advanced far enough that the later timestamp would fit inside a sliding
// window. (The broken variant — frontier tracking bucket_lo_ instead of
// staying pinned until rebase — filed the later event into a rung and fired
// it first.)
TEST(EventQueueLadder, OverflowEntryFiresBeforeLaterRungInsert) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  // First event resets the ladder around t=64; with the default 64 ns
  // stride and 512 rungs the window ends near t ≈ 33k, so t=40000 overflows.
  q.at(64, labeled(1));
  q.at(40000, labeled(100));

  // Walk the ladder: each chain event schedules the next 64 ns ahead until
  // just short of the overflow entry, dragging the low edge across hundreds
  // of buckets. Then insert an event PAST the overflow entry.
  sink.react = [&](const SimEvent& ev) {
    if (ev.a == 1 && q.now() + 64 < 39000) {
      q.after(64, labeled(1));
    } else if (ev.a == 1) {
      q.at(45000, labeled(200));  // later than the overflow entry
    }
  };
  q.run();

  const auto pos100 = std::find(sink.fired.begin(), sink.fired.end(), 100);
  const auto pos200 = std::find(sink.fired.begin(), sink.fired.end(), 200);
  ASSERT_NE(pos100, sink.fired.end());
  ASSERT_NE(pos200, sink.fired.end());
  EXPECT_LT(pos100 - sink.fired.begin(), pos200 - sink.fired.begin())
      << "overflow entry (t=40000) must fire before the rung insert "
         "(t=45000)";
  EXPECT_EQ(q.now(), 45000);
}

// Stress: a few thousand pseudo-random inserts spanning ns-to-ms deltas —
// some up-front, some scheduled from inside dispatches — must fire in exactly
// the order a sorted (t, seq) reference model predicts. Deltas are chosen so
// every tier participates: active window, rungs, overflow, several rebases.
TEST(EventQueueLadder, StressMatchesSortedReferenceModel) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  struct Ref {
    SimTime t;
    std::uint64_t seq;
    std::int32_t label;
  };
  std::vector<Ref> ref;
  std::uint64_t lcg = 0x853c49e6748fea9bULL;
  std::uint64_t seq = 0;
  std::int32_t next_label = 0;
  const auto draw = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  // Tri-modal deltas: mostly ladder-scale, some active-window, some far
  // overflow (forces rebase with widened stride).
  const auto delta = [&draw]() -> SimTime {
    const std::uint64_t d = draw();
    switch (d % 16) {
      case 0: return static_cast<SimTime>(d % 5'000'000);  // up to 5 ms
      case 1:
      case 2: return static_cast<SimTime>(d % 50);         // active window
      default: return static_cast<SimTime>(d % 20'000);    // rungs
    }
  };

  const auto schedule = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.push_back({t, seq++, label});
    q.at(t, labeled(label));
  };

  for (int i = 0; i < 2000; ++i) schedule(delta());
  int inflight_spawns = 6000;
  sink.react = [&](const SimEvent&) {
    for (int k = 0; k < 2 && inflight_spawns > 0; ++k, --inflight_spawns) {
      schedule(q.now() + delta());
    }
  };
  q.run();

  std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  ASSERT_EQ(sink.fired.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(sink.fired[i], ref[i].label)
        << "divergence from the (t, seq) reference order at index " << i;
  }
}

// --- Open-window ordering -------------------------------------------------
//
// Two runs make the same calls: one on an EventQueue, one on a
// plain (t, seq)-ordered map that is the reference. Each firing logs its
// label and clock, and each run_until / run_window logs the clock it leaves.

/// The EventQueue side: PODs dispatch through the sink, closures call the
/// same fire hook.
struct QueueUnderTest final : SimEventSink {
  EventQueue q;
  std::function<void(std::int32_t)> fire;

  QueueUnderTest() { q.bind_sink(this); }
  QueueUnderTest(const QueueUnderTest&) = delete;  // bound by address
  QueueUnderTest& operator=(const QueueUnderTest&) = delete;
  void on_sim_event(const SimEvent& ev) override { fire(ev.a); }

  [[nodiscard]] SimTime now() const { return q.now(); }
  void pod(SimTime t, std::int32_t label) { q.at(t, labeled(label)); }
  void closure(SimTime t, std::int32_t label) {
    q.at(t, [this, label] { fire(label); });
  }
  std::uint64_t reserve() { return q.reserve_seq(); }
  void settle(SimTime t, std::uint64_t seq, std::int32_t label) {
    q.at(t, seq, labeled(label));
  }
  void skip(SimTime t) { q.skip(t); }
  void run_until(SimTime t) { q.run_until(t); }
  void run_window(SimTime end) { q.run_window(end); }
  void run() { q.run(); }
};

/// The reference: one map keyed by (t, seq); a skipped slot is an entry
/// that moves the clock and fires nothing.
struct ReferenceQueue {
  static constexpr std::int32_t kSlot = -1;
  std::map<std::pair<SimTime, std::uint64_t>, std::int32_t> items;
  SimTime clock = 0;
  std::uint64_t seq = 0;
  std::function<void(std::int32_t)> fire;

  [[nodiscard]] SimTime now() const { return clock; }
  void pod(SimTime t, std::int32_t label) { items[{t, seq++}] = label; }
  void closure(SimTime t, std::int32_t label) { pod(t, label); }
  std::uint64_t reserve() { return seq++; }
  void settle(SimTime t, std::uint64_t s, std::int32_t label) {
    items[{t, s}] = label;
  }
  void skip(SimTime t) { items[{t, seq++}] = kSlot; }
  /// Takes the earliest entry while it is ordered before (strict) or at
  /// (!strict) `bound`.
  void drain(SimTime bound, bool strict) {
    while (!items.empty()) {
      const auto it = items.begin();
      const SimTime t = it->first.first;
      if (strict ? t >= bound : t > bound) return;
      const std::int32_t label = it->second;
      items.erase(it);
      clock = t;
      if (label != kSlot) fire(label);
    }
  }
  void run_until(SimTime t) {
    drain(t, false);
    clock = std::max(clock, t);
  }
  void run_window(SimTime end) { drain(end, true); }
  void run() { drain(std::numeric_limits<SimTime>::max(), false); }
};

struct Logged {
  std::int32_t label;  ///< fired label, or -1 for a clock reading
  SimTime clock;
  bool operator==(const Logged&) const = default;
};

/// Synchronous bursts through the open window: hundreds of events at one
/// instant (far past std::sort's 16-entry insertion cutoff) or spread over a
/// few ns inside one 64 ns rung, mixed with closures, reserved sequence
/// numbers settled later and skipped slots at the same instants. Handlers
/// reschedule with after(0)-style and sub-rung delays, so entries keep
/// landing in the window while it drains, and run_until / run_window stop
/// inside the bursts.
template <typename Q>
std::vector<Logged> drive_bursts(std::uint64_t seed) {
  Q q;
  std::vector<Logged> log;
  std::uint64_t lcg = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto draw = [&lcg](std::uint64_t n) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<SimTime>((lcg >> 33) % n);
  };
  std::int32_t label = 0;
  int spawns = 6000;
  SimTime last_skip = 0;
  struct Held {
    std::uint64_t seq;
    SimTime t;
  };
  std::vector<Held> held;

  q.fire = [&](std::int32_t fired) {
    log.push_back(Logged{fired, q.now()});
    if (spawns <= 0) return;
    --spawns;
    switch (draw(8)) {
      case 0:
      case 1:
        q.pod(q.now(), label++);  // after(0): same instant, behind the burst
        break;
      case 2:
      case 3:
        q.pod(q.now() + 1 + draw(63), label++);  // inside the open window
        break;
      case 4:
        q.closure(q.now() + draw(64), label++);
        break;
      case 5:
        q.pod(q.now() + 64 + draw(4000), label++);  // a later rung
        break;
      default:
        break;  // no follow-up
    }
  };

  for (int round = 0; round < 24; ++round) {
    // Settle the reservations drawn last round, some at this round's burst.
    const SimTime burst_at = q.now() + draw(4) * draw(200);
    for (const Held& h : held) {
      q.settle(std::max(h.t, q.now()), h.seq, label++);
    }
    held.clear();
    const int n = 100 + static_cast<int>(draw(500));
    const SimTime spread = draw(2) == 0 ? 0 : 1 + draw(40);
    for (int i = 0; i < n; ++i) {
      const SimTime t = burst_at + (spread == 0 ? 0 : draw(spread));
      switch (draw(16)) {
        case 0:
        case 1:
          q.closure(t, label++);
          break;
        case 2:
          held.push_back(Held{q.reserve(), t});
          break;
        case 3:
          if (t >= last_skip) {
            q.skip(t);
            last_skip = t;
            break;
          }
          [[fallthrough]];
        default:
          q.pod(t, label++);
          break;
      }
    }
    // Stop inside the burst, then finish it or run on.
    const SimTime stop = burst_at + draw(spread + 2);
    if (draw(2) == 0) {
      q.run_window(stop);
    } else {
      q.run_until(stop);
    }
    log.push_back(Logged{-1, q.now()});
    const SimTime next = q.now() + draw(300);
    if (draw(2) == 0) {
      q.run_until(next);
    } else {
      q.run_window(next);
    }
    log.push_back(Logged{-1, q.now()});
  }
  for (const Held& h : held) q.settle(std::max(h.t, q.now()), h.seq, label++);
  q.run();
  log.push_back(Logged{-1, q.now()});
  return log;
}

TEST(EventQueueWindow, SynchronousBurstsMatchTheReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Logged> got = drive_bursts<QueueUnderTest>(seed);
    const std::vector<Logged> want = drive_bursts<ReferenceQueue>(seed);
    ASSERT_GT(want.size(), 5000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "entry " << i << ": label " << got[i].label << " at "
          << got[i].clock << ", reference label " << want[i].label << " at "
          << want[i].clock;
    }
  }
}

// run_until stops exactly at the boundary even when the remaining events sit
// in different tiers (rung vs overflow), and advances the clock to t.
TEST(EventQueueLadder, RunUntilHonorsBoundaryAcrossTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(100, labeled(1));
  q.at(5'000, labeled(2));        // rung
  q.at(10'000'000, labeled(3));   // overflow

  q.run_until(5'000);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(q.now(), 5'000);
  EXPECT_EQ(q.pending(), 1u);

  q.run_until(20'000'000);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20'000'000);
  EXPECT_TRUE(q.empty());
}

// Draining the queue and scheduling again re-anchors the ladder at the new
// time (a fresh reset, not a stale window) and keeps ordering.
TEST(EventQueueLadder, DrainThenRescheduleResetsLadder) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(1'000'000, labeled(1));
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 1'000'000);

  // New epoch of activity at and just past now, plus a far event.
  q.at(1'000'000, labeled(2));
  q.at(1'000'001, labeled(3));
  q.at(9'000'000, labeled(4));
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 4u);
}

// pending()/empty() count both flavors across all tiers.
TEST(EventQueueLadder, PendingCountsEveryTier) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));        // active window (first pod)
  q.at(2'000, labeled(2));     // rung
  q.at(90'000'000, labeled(3)); // overflow
  q.at(50, [] {});             // closure side heap
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_FALSE(q.empty());

  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), 4u);
}

// A POD event firing with no sink bound throws after the event is consumed
// (same semantics as the retired single-heap implementation).
TEST(EventQueueLadder, PodWithoutSinkThrows) {
  EventQueue q;
  q.at(10, labeled(1));
  EXPECT_THROW(q.step(), std::logic_error);
  EXPECT_EQ(q.processed(), 1u);
  EXPECT_TRUE(q.empty());
}

// Rebase where every overflow entry shares one timestamp: lo == hi, so the
// stride-widening loop must not run (span 0 fits any stride) and all entries
// land in a single rung, firing in scheduling order. (The off-by-one variant
// — widening while span >= kBuckets << shift with span 0, or filing the
// shared bucket at the ring's high edge — either loops forever or drops the
// entries back into overflow every rebase.)
TEST(EventQueueLadder, RebaseWithSingleTimestampOverflow) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  // Anchor at t=64: the ladder re-centers with its window ending near
  // t ≈ 33k (64 ns stride, 512 rungs), so t=1ms entries all overflow.
  q.at(64, labeled(0));
  for (std::int32_t i = 1; i <= 5; ++i) q.at(1'000'000, labeled(i));
  q.run();

  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 1'000'000);
}

// Rebase whose overflow span is EXACTLY kBuckets << kDefaultShift (512 x 64):
// the widen condition is (span >> shift) >= kBuckets, so equality must widen
// the stride once — a `>` comparison would leave hi's bucket number equal to
// bucket_hi_, aliasing ring slot 0 and firing the far entry before the near
// ones. Order must match the (t, seq) reference regardless.
TEST(EventQueueLadder, RebaseSpanExactlyRingCapacityKeepsOrder) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  const SimTime base = 1'000'000;
  const SimTime span = 512 * 64;  // kBuckets << kDefaultShift
  q.at(64, labeled(0));           // anchor; everything below overflows past it
  q.at(base + span, labeled(3));  // scheduled first, fires last
  q.at(base, labeled(1));
  q.at(base + 64, labeled(2));
  q.run();

  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), base + span);
}

// --- Window primitives (the sharded engine's conservative-PDES substrate) --

// run_window's horizon is EXCLUSIVE: an event exactly at `end` belongs to the
// next window (it may still be preceded by a cross-domain arrival at end-ε),
// and the clock stays at the last processed event rather than jumping to the
// horizon.
TEST(EventQueueWindow, RunWindowExcludesEventsAtTheHorizon) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));
  q.at(99, labeled(2));
  q.at(100, labeled(3));  // exactly at the horizon: must NOT fire
  q.at(100, [] {});       // closure flavor at the horizon: must NOT fire

  q.run_window(100);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(q.now(), 99) << "clock must stay at the last event, not the horizon";
  EXPECT_EQ(q.pending(), 2u);

  // An arrival landing inside [now, horizon) from a mailbox drain is legal
  // and fires in (t, seq) order in the next window.
  q.at(99, labeled(4));
  q.run_window(101);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 4, 3}));
  EXPECT_TRUE(q.empty());
}

// An empty window (no events below the horizon) processes nothing and leaves
// the clock untouched — the barrier advance is advance_to's job.
TEST(EventQueueWindow, EmptyWindowIsANoOp) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(500, labeled(1));
  q.run_window(500);
  EXPECT_TRUE(sink.fired.empty());
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending(), 1u);

  q.run_window(501);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
}

// advance_to moves the clock forward only; a stale (smaller) bound is a
// no-op, and scheduling at the advanced clock is legal while scheduling
// before it still throws.
TEST(EventQueueWindow, AdvanceToIsMonotoneAndGatesScheduling) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.advance_to(250);
  EXPECT_EQ(q.now(), 250);
  q.advance_to(100);  // backwards: no-op
  EXPECT_EQ(q.now(), 250);

  q.at(250, labeled(1));  // exactly at now: legal
  EXPECT_THROW(q.at(249, labeled(2)), std::logic_error);
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.now(), 250);
}

// next_event_time peeks the global minimum across the POD ladder and the
// closure side heap without consuming anything — the sharded engine's window
// bound is computed from it every iteration.
TEST(EventQueueWindow, NextEventTimePeeksMinAcrossTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  SimTime t = -1;
  EXPECT_FALSE(q.next_event_time(t));

  q.at(700, labeled(1));        // rung
  q.at(90'000'000, labeled(2)); // overflow
  EXPECT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 700);

  q.at(300, [] {});  // closure earlier than every POD
  EXPECT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 300);
  EXPECT_EQ(q.pending(), 3u) << "peeking must not consume";
  EXPECT_EQ(q.processed(), 0u);

  q.run();
  EXPECT_FALSE(q.next_event_time(t));
}

// --- skip(): the slot of an event proved to do nothing ----------------------

// The skipped slot is the last thing to fire: run() leaves the clock on it,
// and it keeps the queue non-empty until then, without counting as an event.
TEST(EventQueueSkip, DrainClockLandsOnTheSkippedSlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(100, labeled(1));
  q.skip(5'000);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 2u);

  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.now(), 5'000);
  EXPECT_EQ(q.processed(), 1u) << "a skipped slot is not an event";
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

// empty() and pending() read the slot exactly as they would read the event:
// pending before its turn, gone after it, and skipping alone never runs a
// handler.
TEST(EventQueueSkip, EmptyBeforeAndAfterTheSlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.skip(40);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  SimTime t = -1;
  EXPECT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 40);

  EXPECT_TRUE(q.step());  // the slot's turn: moves the clock, runs nothing
  EXPECT_EQ(q.now(), 40);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(sink.fired.empty());
  EXPECT_EQ(q.processed(), 0u);
  EXPECT_FALSE(q.step());
  EXPECT_FALSE(q.next_event_time(t));
}

// run_until and run_window consume the slot only inside their horizon.
TEST(EventQueueSkip, RunUntilAndRunWindowBelowAndAboveTheSlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));
  q.skip(1'000);
  q.run_until(999);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.now(), 999);
  EXPECT_FALSE(q.empty()) << "the slot is still ahead of the horizon";
  EXPECT_EQ(q.pending(), 1u);

  q.run_until(1'000);
  EXPECT_EQ(q.now(), 1'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), 1u);

  // run_window stops short of its end and leaves the clock on the last
  // thing that fired, which may be the slot.
  q.at(1'100, labeled(2));
  q.skip(1'200);
  q.run_window(1'200);
  EXPECT_EQ(q.now(), 1'100);
  EXPECT_FALSE(q.empty());
  q.run_window(1'201);
  EXPECT_EQ(q.now(), 1'200);
  EXPECT_TRUE(q.empty());
}

// At one instant the slot keeps its sequence number's place: a real event
// scheduled before it fires first and still sees it pending; one scheduled
// after it fires once the slot is gone.
TEST(EventQueueSkip, TieOrderAgainstARealEventAtTheSameInstant) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  std::vector<std::size_t> pending_seen;
  sink.react = [&](const SimEvent&) { pending_seen.push_back(q.pending()); };

  q.at(500, labeled(1));  // seq 0: before the slot
  q.skip(500);            // seq 1
  q.at(500, labeled(2));  // seq 2: after the slot
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  // Event 1 still sees the slot and event 2 pending; event 2 sees nothing.
  EXPECT_EQ(pending_seen, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(q.now(), 500);
  EXPECT_EQ(q.processed(), 2u);

  // A closure ties the same way: the slot scheduled first goes first.
  EventQueue c;
  std::vector<bool> empty_seen;
  c.skip(70);
  c.at(70, [&] { empty_seen.push_back(c.empty()); });
  c.run();
  EXPECT_EQ(empty_seen, (std::vector<bool>{true}));
}

// Every slot is kept and counted: slots at one instant and at several stay
// pending one by one until their turns pass.
TEST(EventQueueSkip, PendingCountsEverySlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.skip(100);
  q.skip(200);
  q.skip(200);
  q.at(150, labeled(1));
  EXPECT_EQ(q.pending(), 4u);
  q.run_until(100);
  EXPECT_EQ(q.pending(), 3u);
  q.run_until(150);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.now(), 200);
  EXPECT_EQ(q.processed(), 1u);
}

// next_event_time reports the earliest slot while one is ahead of every
// event, so a sharded window opens where the skipped event would have.
TEST(EventQueueSkip, NextEventTimeReportsTheEarliestSlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(500, labeled(1));
  q.skip(100);
  q.skip(300);
  SimTime t = -1;
  ASSERT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 100);
  q.run_until(100);
  ASSERT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 300);
  q.run_until(300);
  ASSERT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 500) << "the event is earliest once the slots are gone";
}

// run_window consumes only the slots before its end, and leaves the clock on
// the last one it consumed when that is ordered after every event it ran.
TEST(EventQueueSkip, RunWindowStopsAtEndWithTheClockOnTheLastConsumedSlot) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));
  q.skip(20);
  q.skip(30);
  q.skip(50);
  q.at(60, labeled(2));
  q.run_window(50);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.now(), 30);
  EXPECT_EQ(q.pending(), 2u);
  SimTime t = -1;
  ASSERT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 50);
}

// Slots form a FIFO, so they must be taken in (t, seq) order; one ordered
// before the last pending slot throws, as does one in the past.
TEST(EventQueueSkip, OutOfOrderSkipThrows) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  const std::uint64_t early = q.reserve_seq();
  q.skip(300);
  EXPECT_THROW(q.skip(200), std::logic_error);
  EXPECT_THROW(q.skip(300, early), std::logic_error)
      << "same instant, earlier sequence number";
  q.skip(300);  // same instant, later sequence number
  q.skip(400, early);
  EXPECT_EQ(q.pending(), 3u);
  q.run();
  EXPECT_EQ(q.now(), 400);
  EXPECT_THROW(q.skip(399), std::logic_error);  // the past, as for at()
  EXPECT_THROW(q.skip(500, 12345), std::logic_error)
      << "no reservation is open";
}

// A reserved sequence number fires where an at() made at reservation time
// would have: before a later at() at the same instant. Until it is settled
// the reservation keeps the queue non-empty.
TEST(EventQueueSkip, ReservedAtFiresBeforeALaterAtAtTheSameInstant) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  const std::uint64_t seq = q.reserve_seq();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.step()) << "a reservation alone has nothing to run";
  q.at(100, labeled(2));
  q.at(100, seq, labeled(1));
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.at(200, seq, labeled(3)), std::logic_error)
      << "the reservation was already settled";
}

// Property: random interleavings of at / skip / reservations / run_window /
// run_until / run read exactly like a reference queue that schedules every
// skip as an event that does nothing: the same real events fire in the same
// order, and every clock, empty(), pending() and next_event_time() reading
// matches, inside handlers too.
TEST(EventQueueSkip, MatchesAQueueThatSchedulesEverySkipAsANoOp) {
  constexpr std::int32_t kNoOp = -1;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue q;
    EventQueue ref;
    RecordingSink sq;
    RecordingSink sref;
    q.bind_sink(&sq);
    ref.bind_sink(&sref);
    std::vector<std::size_t> seen_q;
    std::vector<std::size_t> seen_ref;
    // A real event may schedule a follow-up, a function of its label and
    // the clock, so both queues do the same from inside their handlers.
    const auto react = [](EventQueue& queue, std::vector<std::size_t>& seen) {
      return [&queue, &seen](const SimEvent& ev) {
        seen.push_back(queue.pending());
        if (ev.a >= 0 && ev.a % 3 == 0) {
          queue.at(queue.now() + ev.a % 7 * 13, labeled(ev.a + 100'000));
        }
      };
    };
    sq.react = react(q, seen_q);
    sref.react = react(ref, seen_ref);

    std::uint64_t lcg = seed * 0x9e3779b97f4a7c15ULL;
    const auto draw = [&lcg](std::uint64_t n) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<SimTime>((lcg >> 33) % n);
    };
    std::int32_t label = 0;
    SimTime last_skip = -1;
    struct Held {
      std::uint64_t q;
      std::uint64_t ref;
    };
    std::vector<Held> held;
    const auto next_skip_time = [&] {
      last_skip = std::max(last_skip + 1, q.now()) + draw(200);
      return last_skip;
    };
    const auto settle = [&](const Held& h) {
      if (draw(2) == 0) {
        const SimTime t = q.now() + draw(400);
        q.at(t, h.q, labeled(label));
        ref.at(t, h.ref, labeled(label));
        ++label;
      } else {
        const SimTime t = next_skip_time();
        q.skip(t, h.q);
        ref.at(t, h.ref, labeled(kNoOp));
      }
    };

    for (int op = 0; op < 400; ++op) {
      switch (draw(8)) {
        case 0:
        case 1: {
          const SimTime t = q.now() + draw(400);
          q.at(t, labeled(label));
          ref.at(t, labeled(label));
          ++label;
          break;
        }
        case 2: {
          const SimTime t = next_skip_time();
          q.skip(t);
          ref.at(t, labeled(kNoOp));
          break;
        }
        case 3:
          held.push_back(Held{q.reserve_seq(), ref.reserve_seq()});
          break;
        case 4:
          if (!held.empty()) {
            settle(held.front());
            held.erase(held.begin());
          }
          break;
        case 5: {
          const SimTime end = q.now() + draw(300);
          q.run_window(end);
          ref.run_window(end);
          break;
        }
        case 6: {
          const SimTime t = q.now() + draw(300);
          q.run_until(t);
          ref.run_until(t);
          break;
        }
        default:
          if (draw(8) == 0) {
            q.run();
            ref.run();
          }
          break;
      }
      ASSERT_EQ(q.now(), ref.now()) << "op " << op;
      ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
      ASSERT_EQ(q.pending(), ref.pending()) << "op " << op;
      SimTime tq = -1;
      SimTime tref = -1;
      ASSERT_EQ(q.next_event_time(tq), ref.next_event_time(tref));
      ASSERT_EQ(tq, tref) << "op " << op;
    }
    for (const Held& h : held) settle(h);
    q.run();
    ref.run();
    EXPECT_EQ(q.now(), ref.now());
    EXPECT_TRUE(q.empty());
    std::vector<std::int32_t> real = sref.fired;
    real.erase(std::remove(real.begin(), real.end(), kNoOp), real.end());
    EXPECT_EQ(sq.fired, real);
    std::vector<std::size_t> real_seen;
    for (std::size_t i = 0; i < sref.fired.size(); ++i) {
      if (sref.fired[i] != kNoOp) real_seen.push_back(seen_ref[i]);
    }
    EXPECT_EQ(seen_q, real_seen);
    EXPECT_EQ(q.processed() + (sref.fired.size() - real.size()),
              ref.processed());
  }
}

}  // namespace
}  // namespace peel
