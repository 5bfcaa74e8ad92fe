// TreePlanCache: control-plane memoization for multicast tree / prefix-plan
// construction.
//
// The simulator's control plane rebuilds byte-identical artifacts constantly:
// every stripe of a collective derives the same PeelPlan, every repeated
// placement window re-peels the same Steiner trees, and every recovery pass
// re-plans origin groups. This cache sits in front of the deterministic
// builders (build_peel_plan, peel_static_trees, peel_asymmetric_trees,
// layer_peel_tree) and returns the previously computed artifact when every
// input matches. It stores two artifact types: a PeelPlan, and a part list
// (std::vector<PeelStream>: one forward-orientation tree per packet class,
// with the member endpoints it serves). A recovery tree is a one-part list.
//
// Validity contract under topology churn: the cache must never serve a plan
// that traverses a currently failed link. A part list is indexed under every
// duplex pair its trees traverse; apply_delta() consumes a TopologyDelta
// (src/routing/topology_events.h) and touches only the entries whose trees
// traverse a pair the delta reports down — repairing each part in place
// (incremental re-peel, src/steiner/tree_repair.h) or, when some part cannot
// be repaired, evicting the entry. PeelPlans never read the failure set and
// carry no edges, so no delta touches them. Up transitions evict nothing: a
// tree over live links stays valid when more links come back, and because
// eviction already happened at the Down, a repair can never resurrect a plan
// that traversed the failed link.
//
// The key still contains EVERY input the builder reads — kind, source, the
// full destination vector (exact equality, not just a hash), and the cover
// policy — so within one failure state a hit is indistinguishable from a
// rebuild. Across failure states the cache guarantees validity, not
// byte-transparency: a surviving (or repaired) plan may legitimately differ
// from what a from-scratch rebuild would produce now.
//
// Hit/miss/insertion/invalidation/repair counters feed ScenarioResult and
// scenario_cli; bench/micro_algorithms times a hit (BM_PlanCacheHit).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/collectives/trees.h"
#include "src/prefix/plan.h"
#include "src/routing/topology_events.h"
#include "src/topology/topology.h"

namespace peel {

/// Which builder produced a cached artifact (part of the key: two builders
/// given the same group must never alias each other's results).
enum class PlanKind : std::uint8_t {
  PeelPlan,        ///< build_peel_plan (symmetric prefix cover)
  PeelAsymmetric,  ///< peel_asymmetric_trees (failure-shaped greedy trees)
  RecoveryTree,    ///< layer_peel_tree for a recovery origin group
  ReducePlan,      ///< peel_static_trees parts reused as mirrored reduce trees
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;    ///< misses whose artifact was stored
  std::uint64_t invalidations = 0; ///< entries evicted by topology deltas
  std::uint64_t repairs = 0;       ///< entries patched in place by apply_delta

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class TreePlanCache {
 public:
  /// `capacity` bounds the entry count; reaching it flushes the cache (the
  /// artifacts are cheap to rebuild, so eviction policy is not worth state).
  explicit TreePlanCache(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Repairs every cached part list whose trees traverse a pair the delta
  /// reports down: repair_tree on each part against `topo`'s current failure
  /// set, re-indexed under the repaired edges; an entry with a part that
  /// cannot be repaired (some receiver unreachable) is evicted. Pairs the
  /// delta reports up touch nothing — see the validity contract above.
  void apply_delta(const TopologyDelta& delta, const Topology& topo);

  /// Looks up the artifact for (kind, source, dests, cover), invoking
  /// `build` on a miss. `build` returns a PeelPlan or a
  /// std::vector<PeelStream>, and must be a pure function of those inputs
  /// and the current fabric state; a part list is indexed under the duplex
  /// pairs its trees traverse. A build that throws caches nothing.
  template <typename Build>
  auto get_or_build(PlanKind kind, NodeId source, const std::vector<NodeId>& dests,
                    const PeelCoverOptions& cover, Build&& build)
      -> std::shared_ptr<const std::invoke_result_t<Build&>> {
    using T = std::invoke_result_t<Build&>;
    static_assert(std::is_same_v<T, PeelPlan> || std::is_same_v<T, Parts>,
                  "the cache stores PeelPlans and part lists");
    Key key{kind, source, cover.max_tor_prefixes_per_pod, cover.max_pod_blocks,
            dests};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return std::get<std::shared_ptr<const T>>(it->second.value);
    }
    ++stats_.misses;
    auto value = std::make_shared<const T>(build());
    insert(std::move(key), value);
    return value;
  }

  [[nodiscard]] const PlanCacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  using Parts = std::vector<PeelStream>;
  using Artifact =
      std::variant<std::shared_ptr<const PeelPlan>, std::shared_ptr<const Parts>>;

  struct Key {
    PlanKind kind;
    NodeId source;
    int cover_tor;
    int cover_pod;
    std::vector<NodeId> dests;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // FNV-1a over every field; the map resolves collisions by full
      // equality, so the hash only affects speed, never behavior.
      std::uint64_t h = 1469598103934665603ULL;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
      };
      mix(static_cast<std::uint64_t>(k.kind));
      mix(static_cast<std::uint64_t>(k.source));
      mix(static_cast<std::uint64_t>(k.cover_tor));
      mix(static_cast<std::uint64_t>(k.cover_pod));
      for (NodeId d : k.dests) mix(static_cast<std::uint64_t>(d));
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    Artifact value;
    std::vector<LinkId> edges;  ///< sorted, deduped duplex-pair reps
    std::uint64_t last_pass = 0;  ///< apply_delta pass that last touched this
  };

  /// Stores a freshly built artifact (flushing first at capacity) and
  /// indexes a part list under its edges.
  void insert(Key key, Artifact value);
  void index(const Key* key, const std::vector<LinkId>& edges);
  void unindex(const Key* key, const std::vector<LinkId>& edges);

  std::size_t capacity_;
  std::uint64_t apply_pass_ = 0;
  PlanCacheStats stats_;
  // Node-based map: Key addresses stay stable across rehashes, so the
  // link-keyed secondary index can hold bare pointers into the key set.
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::unordered_map<LinkId, std::vector<const Key*>> by_edge_;
};

}  // namespace peel
