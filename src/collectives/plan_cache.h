// TreePlanCache: control-plane memoization for multicast tree / prefix-plan
// construction.
//
// The simulator's control plane rebuilds byte-identical artifacts constantly:
// every stripe of a collective derives the same PeelPlan, every repeated
// placement window re-peels the same Steiner trees, and every recovery pass
// re-plans origin groups. This cache sits in front of the deterministic
// builders (build_peel_plan, peel_asymmetric_trees, layer_peel_tree) and
// returns the previously computed artifact when every input matches.
//
// Validity contract under topology churn: the cache must never serve a plan
// that traverses a currently failed link. Each entry learns its artifact's
// edge set (duplex-pair representatives) at insert time and is indexed under
// every edge it traverses; apply_delta() consumes a TopologyDelta
// (src/routing/topology_events.h) and touches only the entries whose trees
// traverse a pair the delta reports down — repairing them in place through
// the caller's hook (incremental re-peel, src/steiner/tree_repair.h) or
// evicting them. Entries with an empty edge set (failure-oblivious builders
// like build_peel_plan) are immune to deltas by construction. Up transitions
// evict nothing: a tree over live links stays valid when more links come
// back, and because eviction already happened at the Down, a repair can
// never resurrect a plan that traversed the failed link.
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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

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
  std::uint64_t repairs = 0;       ///< entries patched in place by the hook

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Outcome of the caller's repair hook for one delta-affected entry: a
/// replacement artifact plus its new edge set, or a null value to evict.
struct PlanRepair {
  std::shared_ptr<const void> value;
  std::vector<LinkId> edges;
};

class TreePlanCache {
 public:
  /// `capacity` bounds the entry count; reaching it flushes the cache (the
  /// artifacts are cheap to rebuild, so eviction policy is not worth state).
  explicit TreePlanCache(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Attempts to repair (or evicts) every cached plan whose edge set
  /// traverses a pair the delta reports down. `repair` receives the entry's
  /// key fields and type-erased artifact and returns the replacement (null
  /// value = evict); an empty hook evicts every affected entry. Pairs the
  /// delta reports up touch nothing — see the validity contract above.
  using RepairFn = std::function<PlanRepair(
      PlanKind kind, NodeId source, const std::vector<NodeId>& dests,
      const std::shared_ptr<const void>& value)>;
  void apply_delta(const TopologyDelta& delta, const RepairFn& repair = {}) {
    if (delta.down_pairs.empty()) return;
    // Collect the affected keys first: repairing an entry re-indexes it,
    // which must not race the bucket iteration. A plan whose tree traverses
    // several pairs the delta reports down appears in several buckets; the
    // per-delta pass stamp dedups it so each plan is repaired (and the hook
    // invoked) exactly once per delta, regardless of how many of its edges
    // went down together.
    const std::uint64_t pass = ++apply_pass_;
    std::vector<const Key*> affected;
    for (LinkId pair : delta.down_pairs) {
      const auto bucket = by_edge_.find(pair);
      if (bucket == by_edge_.end()) continue;
      for (const Key* k : bucket->second) {
        Entry& e = entries_.find(*k)->second;
        if (e.last_pass == pass) continue;
        e.last_pass = pass;
        affected.push_back(k);
      }
    }
    for (const Key* kp : affected) {
      const auto it = entries_.find(*kp);
      Entry& entry = it->second;
      unindex(&it->first, entry.edges);
      PlanRepair fixed;
      if (repair) fixed = repair(kp->kind, kp->source, kp->dests, entry.value);
      if (fixed.value != nullptr) {
        entry.value = std::move(fixed.value);
        entry.edges = normalize_edges(std::move(fixed.edges));
        index(&it->first, entry.edges);
        ++stats_.repairs;
      } else {
        entries_.erase(it);
        ++stats_.invalidations;
      }
    }
  }

  /// Looks up the artifact for (kind, source, dests, cover), invoking
  /// `build` on a miss and `edges_of(artifact)` to learn the duplex pairs
  /// the artifact traverses (its delta-invalidation footprint). `build` must
  /// be a pure function of those inputs and the current fabric state. T must
  /// match `kind` at every call site — the kind IS the type tag.
  template <typename T, typename Build, typename EdgesOf>
  std::shared_ptr<const T> get_or_build(PlanKind kind, NodeId source,
                                        const std::vector<NodeId>& dests,
                                        const PeelCoverOptions& cover,
                                        Build&& build, EdgesOf&& edges_of) {
    Key key{kind, source, cover.max_tor_prefixes_per_pod, cover.max_pod_blocks,
            dests};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return std::static_pointer_cast<const T>(it->second.value);
    }
    ++stats_.misses;
    auto value = std::make_shared<const T>(build());
    if (entries_.size() >= capacity_) {
      entries_.clear();
      by_edge_.clear();
    }
    Entry entry;
    entry.value = value;
    entry.edges = normalize_edges(edges_of(*value));
    const auto pos = entries_.emplace(std::move(key), std::move(entry)).first;
    index(&pos->first, pos->second.edges);
    ++stats_.insertions;
    return value;
  }

  /// Overload for failure-oblivious builders (no link in the artifact's
  /// construction depends on the failure set): the entry carries no edges
  /// and is therefore immune to topology deltas.
  template <typename T, typename Build>
  std::shared_ptr<const T> get_or_build(PlanKind kind, NodeId source,
                                        const std::vector<NodeId>& dests,
                                        const PeelCoverOptions& cover,
                                        Build&& build) {
    return get_or_build<T>(kind, source, dests, cover,
                           std::forward<Build>(build),
                           [](const T&) { return std::vector<LinkId>{}; });
  }

  [[nodiscard]] const PlanCacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
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
    std::shared_ptr<const void> value;
    std::vector<LinkId> edges;  ///< sorted, deduped duplex-pair reps
    std::uint64_t last_pass = 0;  ///< apply_delta pass that last touched this
  };

  [[nodiscard]] static std::vector<LinkId> normalize_edges(
      std::vector<LinkId> edges) {
    for (LinkId& l : edges) l -= l % 2;
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  }

  void index(const Key* key, const std::vector<LinkId>& edges) {
    for (LinkId pair : edges) by_edge_[pair].push_back(key);
  }
  void unindex(const Key* key, const std::vector<LinkId>& edges) {
    for (LinkId pair : edges) {
      const auto bucket = by_edge_.find(pair);
      if (bucket == by_edge_.end()) continue;
      std::erase(bucket->second, key);
      if (bucket->second.empty()) by_edge_.erase(bucket);
    }
  }

  std::size_t capacity_;
  std::uint64_t apply_pass_ = 0;
  PlanCacheStats stats_;
  // Node-based map: Key addresses stay stable across rehashes, so the
  // link-keyed secondary index can hold bare pointers into the key set.
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::unordered_map<LinkId, std::vector<const Key*>> by_edge_;
};

}  // namespace peel
