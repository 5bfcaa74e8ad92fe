#include "src/sim/event_queue.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace peel {

void EventQueue::check_not_past(SimTime t) const {
  if (t < now_) {
    throw std::logic_error("EventQueue: scheduling into the past (t=" +
                           std::to_string(t) + " ns < now=" +
                           std::to_string(now_) + " ns)");
  }
}

void EventQueue::settle_reservation() {
  if (reserved_ == 0) {
    throw std::logic_error(
        "EventQueue: settling a sequence number never reserved");
  }
  --reserved_;
}

void EventQueue::check_skip(SimTime t, std::uint64_t seq) const {
  check_not_past(t);
  if (skips_.empty()) return;
  const SlotKey& last = skips_.back();
  if (t != last.t ? t < last.t : seq < last.seq) {
    throw std::logic_error("EventQueue: skipped slot (t=" + std::to_string(t) +
                           " ns) ordered before the last one (t=" +
                           std::to_string(last.t) + " ns)");
  }
}

void EventQueue::skip(SimTime t) {
  check_skip(t, next_seq_);
  skips_.push_back(SlotKey{t, next_seq_++});
}

void EventQueue::skip(SimTime t, std::uint64_t seq) {
  check_skip(t, seq);
  settle_reservation();
  skips_.push_back(SlotKey{t, seq});
}

SimTime EventQueue::pop_skip() {
  const SimTime t = skips_[skip_head_].t;
  ++skip_head_;
  if (skip_head_ == skips_.size()) {
    skips_.clear();
    skip_head_ = 0;
  } else if (skip_head_ > 1024) {
    skips_.erase(skips_.begin(),
                 skips_.begin() + static_cast<std::ptrdiff_t>(skip_head_));
    skip_head_ = 0;
  }
  return t;
}

void EventQueue::drop_skips_before(SimTime t, std::uint64_t seq) {
  while (skip_head_ != skips_.size()) {
    const SlotKey& slot = skips_[skip_head_];
    if (slot.t != t ? slot.t > t : slot.seq > seq) return;
    pop_skip();
  }
}

void EventQueue::at(SimTime t, Action fn) {
  check_not_past(t);
  acts_.push_back(ClosureEntry{t, next_seq_++, std::move(fn)});
  std::push_heap(acts_.begin(), acts_.end(), ClosureLater{});
}

void EventQueue::insert_slow(const PodEntry& entry) {
  // pod_count_ was already incremented by the caller.
  if (pod_count_ == 1) {
    // First pod after a drain: re-center the ladder just past it so the
    // active window covers the entry and its near future.
    shift_ = kDefaultShift;
    bucket_lo_ = (entry.t >> shift_) + 1;
    bucket_hi_ = bucket_lo_ + kBuckets;
    window_end_ = static_cast<SimTime>(bucket_lo_) << shift_;
    cur_.push_back(entry);  // a sorted window of one
    return;
  }
  const std::int64_t bn = entry.t >> shift_;
  if (bn < bucket_hi_) {
    // Boundary hardening: an entry reaching this branch sits at or past
    // window_end_ (the hot path claims everything below it), so its bucket
    // number can never trail the ladder's low edge. If it did, the ring
    // index (bn & kBucketMask) would alias a future bucket and the entry
    // would fire out of order — fail loudly instead of silently reordering.
    if (bn < bucket_lo_) {
      throw std::logic_error(
          "EventQueue: rung insert below the ladder frontier (t=" +
          std::to_string(entry.t) + " ns, window_end=" +
          std::to_string(window_end_) + " ns)");
    }
    rungs_[static_cast<std::size_t>(bn & kBucketMask)].push_back(entry);
    ++rung_count_;
  } else {
    overflow_.push_back(entry);
  }
}

void EventQueue::advance() {
  for (;;) {
    while (rung_count_ > 0) {
      std::vector<PodEntry>& bucket =
          rungs_[static_cast<std::size_t>(bucket_lo_ & kBucketMask)];
      ++bucket_lo_;
      window_end_ = static_cast<SimTime>(bucket_lo_) << shift_;
      if (!bucket.empty()) {
        rung_count_ -= bucket.size();
        // Swap rather than move: cur_'s spent capacity is recycled as the
        // (now empty) bucket's storage. Sorted latest first, the window is
        // popped off its back.
        cur_.swap(bucket);
        std::sort(cur_.begin(), cur_.end(), PodLater{});
        return;
      }
    }
    rebase();
  }
}

void EventQueue::rebase() {
  SimTime lo = overflow_.front().t;
  SimTime hi = lo;
  for (const PodEntry& e : overflow_) {
    if (e.t < lo) lo = e.t;
    if (e.t > hi) hi = e.t;
  }
  // Widen the stride until the span fits the ring; entries in the ragged
  // last bucket simply stay in overflow for the next rebase.
  shift_ = kDefaultShift;
  while (((hi - lo) >> shift_) >= kBuckets) ++shift_;
  bucket_lo_ = lo >> shift_;
  bucket_hi_ = bucket_lo_ + kBuckets;
  window_end_ = static_cast<SimTime>(bucket_lo_) << shift_;
  std::vector<PodEntry> rest;
  for (const PodEntry& e : overflow_) {
    const std::int64_t bn = e.t >> shift_;
    if (bn < bucket_hi_) {
      rungs_[static_cast<std::size_t>(bn & kBucketMask)].push_back(e);
      ++rung_count_;
    } else {
      rest.push_back(e);
    }
  }
  overflow_ = std::move(rest);
}

bool EventQueue::peek_next(SimTime& t) {
  const PodEntry* pod = pod_front();
  if (pod != nullptr && !acts_.empty()) {
    t = std::min(pod->t, acts_.front().t);
  } else if (pod != nullptr) {
    t = pod->t;
  } else if (!acts_.empty()) {
    t = acts_.front().t;
  } else {
    return false;
  }
  return true;
}

bool EventQueue::step() {
  const PodEntry* pod = pod_front();
  bool take_pod = pod != nullptr;
  if (pod != nullptr && !acts_.empty()) {
    const ClosureEntry& c = acts_.front();
    take_pod = pod->t != c.t ? pod->t < c.t : pod->seq < c.seq;
  } else if (pod == nullptr && acts_.empty()) {
    // Only skipped slots can be left: the earliest one's turn just moves
    // the clock.
    if (skip_head_ == skips_.size()) return false;
    now_ = pop_skip();
    return true;
  }
  if (take_pod) {
    const PodEntry entry = *pod;
    if (!cur_.empty() && pod == &cur_.back()) {
      cur_.pop_back();
    } else {
      std::pop_heap(late_.begin(), late_.end(), PodLater{});
      late_.pop_back();
    }
    --pod_count_;
    pass_skipped(entry.t, entry.seq);
    now_ = entry.t;
    ++processed_;
    if (sink_ == nullptr) {
      throw std::logic_error("EventQueue: SimEvent fired with no sink bound");
    }
    sink_->on_sim_event(entry.ev);
  } else {
    std::pop_heap(acts_.begin(), acts_.end(), ClosureLater{});
    ClosureEntry entry = std::move(acts_.back());
    acts_.pop_back();
    pass_skipped(entry.t, entry.seq);
    now_ = entry.t;
    ++processed_;
    entry.fn();
  }
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(SimTime t) {
  SimTime next = 0;
  while (peek_next(next) && next <= t) step();
  while (skip_head_ != skips_.size() && skips_[skip_head_].t <= t) pop_skip();
  if (now_ < t) now_ = t;
}

void EventQueue::run_window(SimTime end) {
  SimTime next = 0;
  while (peek_next(next) && next < end) step();
  // A slot still pending here is ordered after every event this window ran.
  while (skip_head_ != skips_.size() && skips_[skip_head_].t < end) {
    now_ = pop_skip();
  }
}

}  // namespace peel
