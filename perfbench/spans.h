// In-memory span recorder for the benchmark's traced pass.
//
// Spans are opened around calls the benchmark makes into the simulator's
// public surfaces (event dispatch, DataPlane calls, collective submission,
// topology deltas, recovery passes) and aggregated per layer: total time,
// self time (total minus the time covered by nested spans) and call count.
// Per-event spans are too numerous to keep individually, so the recorder
// stores only per-layer aggregates plus the first kMaxKept control-plane
// spans (submit, recover, delta apply) with their parent, all written out
// when the benchmark exits.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum Layer : int {
  kEngineBuild,   // fabric copy, engine/runner/injector construction, arming
  kHarvest,       // result assembly after the run
  kSched,         // EventQueue::run / ShardedNetwork::run (root of the run)
  kPump,          // Network::on_sim_event per SimEventKind
  kFinishTx,
  kArrive,
  kCnp,
  kSample,
  kReduceEmit,
  kPfc,
  kOpenStream,    // DataPlane calls made by the runner and the injector
  kSendChunk,
  kCloseStream,
  kCancel,
  kInject,        // on_duplex_failed / on_duplex_restored
  kDelivery,      // the runner's delivery handler
  kSubmit,        // CollectiveRunner::submit* closures
  kRecover,       // CollectiveRunner::recover_all closures
  kDeltaApply,    // CollectiveRunner::on_topology_delta via the bus
  kArrivals,      // arrival-schedule generation
  kPlacement,     // select_local_group
  kChurn,         // churn_group
  kLayerCount
};

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct LayerStat {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

struct KeptSpan {
  Layer layer;
  std::int64_t start_ns;  ///< relative to the recorder's epoch
  std::int64_t end_ns;
  int parent;             ///< index into kept spans, -1 = none kept
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kMaxKept = 20000;

  Tracer() : epoch_(Clock::now()) { stack_.reserve(16); }

  void begin(Layer layer) {
    stack_.push_back(Frame{layer, Clock::now(), 0.0, -1});
    if (keeps(layer) && kept_.size() < kMaxKept) {
      stack_.back().kept = static_cast<int>(kept_.size());
      kept_.push_back(KeptSpan{layer, ns_since_epoch(stack_.back().start), 0,
                               innermost_kept()});
    }
  }

  void end() {
    const Clock::time_point now = Clock::now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = std::chrono::duration<double>(now - f.start).count();
    LayerStat& s = stats_[static_cast<std::size_t>(f.layer)];
    s.total_s += dur;
    s.self_s += dur - f.child_s;
    ++s.calls;
    if (!stack_.empty()) stack_.back().child_s += dur;
    if (f.kept >= 0) {
      kept_[static_cast<std::size_t>(f.kept)].end_ns = ns_since_epoch(now);
    }
  }

  [[nodiscard]] const LayerStat& stat(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<KeptSpan>& kept() const noexcept {
    return kept_;
  }
  [[nodiscard]] bool idle() const noexcept { return stack_.empty(); }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
    int kept;
  };

  [[nodiscard]] static bool keeps(Layer layer) noexcept {
    return layer == kSubmit || layer == kRecover || layer == kDeltaApply ||
           layer == kInject || layer == kSched || layer == kEngineBuild ||
           layer == kHarvest;
  }
  [[nodiscard]] int innermost_kept() const noexcept {
    for (auto it = stack_.rbegin() + 1; it != stack_.rend(); ++it) {
      if (it->kept >= 0) return it->kept;
    }
    return -1;
  }
  [[nodiscard]] std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Frame> stack_;
  std::array<LayerStat, kLayerCount> stats_{};
  std::vector<KeptSpan> kept_;
};

/// Scoped span; a null tracer records nothing (the untraced assembled pass).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void close() {
    if (tracer_ != nullptr) tracer_->end();
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
