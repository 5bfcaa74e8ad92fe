// Structured topology-change events: the control plane's invalidation API.
//
// A TopologyDelta names exactly which duplex link pairs transitioned
// live->failed (down_pairs) or failed->live (up_pairs) at one simulated
// instant, plus the switch whose outage expanded to those pairs (if any).
// Producers (FaultInjector, tests driving Topology::fail_duplex by hand)
// publish deltas through a TopologyEventBus; consumers — the Router's
// distance cache, and the runner, which hands each delta to its
// TreePlanCache's link-keyed index and incremental tree repair — subscribe
// as TopologyObservers and react to the named links only, instead of
// discarding all derived state on an opaque epoch bump.
//
// Links are identified by their duplex-pair representative (the even id of
// the pair, as everywhere in src/topology): fail_duplex/restore_duplex act
// on both directions at once, so one id describes the whole transition.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/topology/topology.h"

namespace peel {

/// What kind of fabric transition a delta describes.
enum class TopologyChange : std::uint8_t {
  LinkDown,
  LinkUp,
  SwitchDown,  ///< every incident duplex pair of switch_id went down
  SwitchUp,
};

[[nodiscard]] const char* to_string(TopologyChange change) noexcept;

struct TopologyDelta {
  /// Monotone per-bus sequence number, stamped by TopologyEventBus::publish.
  /// 0 for deltas built by hand and delivered directly to an observer.
  std::uint64_t seq = 0;
  SimTime time = 0;
  TopologyChange change = TopologyChange::LinkDown;
  /// The failed/repaired switch for Switch* changes, kInvalidNode otherwise.
  NodeId switch_id = kInvalidNode;
  /// Duplex-pair representatives (even link ids) that went live->failed.
  std::vector<LinkId> down_pairs;
  /// Duplex-pair representatives that went failed->live.
  std::vector<LinkId> up_pairs;

  /// True when at least one pair actually changed state (reference-counted
  /// overlapping outages can absorb an event entirely).
  [[nodiscard]] bool any() const noexcept {
    return !down_pairs.empty() || !up_pairs.empty();
  }

  /// Single-link factories; `link` may be either direction of the pair.
  [[nodiscard]] static TopologyDelta link_down(LinkId link, SimTime t = 0);
  [[nodiscard]] static TopologyDelta link_up(LinkId link, SimTime t = 0);
};

/// Consumes topology-change events. Implementations must tolerate deltas
/// whose pairs they hold no state for (reacting is filtering, not asserting).
class TopologyObserver {
 public:
  virtual ~TopologyObserver() = default;
  virtual void on_topology_delta(const TopologyDelta& delta) = 0;
};

/// Fans one producer's deltas out to every subscribed observer, stamping a
/// monotone sequence number on each published delta. Subscription order is
/// notification order (deterministic). The bus does not own observers; an
/// observer must unsubscribe (or outlive the bus's last publish).
class TopologyEventBus {
 public:
  void subscribe(TopologyObserver* observer);
  void unsubscribe(TopologyObserver* observer) noexcept;

  /// Stamps `delta.seq`, notifies observers in subscription order, and
  /// returns the stamped sequence number.
  std::uint64_t publish(TopologyDelta delta);

  /// Sequence number of the most recently published delta (0 = none yet).
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }
  [[nodiscard]] std::size_t observer_count() const noexcept {
    return observers_.size();
  }

 private:
  std::vector<TopologyObserver*> observers_;
  std::uint64_t last_seq_ = 0;
};

}  // namespace peel
