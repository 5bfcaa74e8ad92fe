#include "src/collectives/plan_cache.h"

#include <algorithm>
#include <exception>

#include "src/steiner/tree_repair.h"

namespace peel {

namespace {

/// Sorted, deduped duplex pairs every part tree traverses: the index a
/// cached part list is repaired or evicted under.
std::vector<LinkId> part_pairs(const std::vector<PeelStream>& parts) {
  std::vector<LinkId> edges;
  for (const PeelStream& part : parts) {
    const std::vector<LinkId> pairs = duplex_edge_pairs(part.tree);
    edges.insert(edges.end(), pairs.begin(), pairs.end());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

void TreePlanCache::apply_delta(const TopologyDelta& delta, const Topology& topo) {
  if (delta.down_pairs.empty()) return;
  // Collect the affected keys first: repairing an entry re-indexes it,
  // which must not race the bucket iteration. A plan whose tree traverses
  // several pairs the delta reports down appears in several buckets; the
  // per-delta pass stamp dedups it so each plan is repaired exactly once per
  // delta, regardless of how many of its edges went down together.
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
    // Only part lists carry edges, so only they reach this point.
    const Parts& parts = *std::get<std::shared_ptr<const Parts>>(entry.value);
    auto fixed = std::make_shared<Parts>();
    fixed->reserve(parts.size());
    try {
      for (const PeelStream& part : parts) {
        fixed->push_back(PeelStream{repair_tree(topo, part.tree).tree, part.receivers});
      }
    } catch (const std::exception&) {
      // Some orphaned receiver is unreachable right now: evict; a later
      // lookup (after the fabric heals) rebuilds from scratch.
      entries_.erase(it);
      ++stats_.invalidations;
      continue;
    }
    entry.edges = part_pairs(*fixed);
    entry.value = std::shared_ptr<const Parts>(std::move(fixed));
    index(&it->first, entry.edges);
    ++stats_.repairs;
  }
}

void TreePlanCache::insert(Key key, Artifact value) {
  if (entries_.size() >= capacity_) {
    entries_.clear();
    by_edge_.clear();
  }
  Entry entry;
  if (const auto* parts = std::get_if<std::shared_ptr<const Parts>>(&value)) {
    entry.edges = part_pairs(**parts);
  }
  entry.value = std::move(value);
  const auto pos = entries_.emplace(std::move(key), std::move(entry)).first;
  index(&pos->first, pos->second.edges);
  ++stats_.insertions;
}

void TreePlanCache::index(const Key* key, const std::vector<LinkId>& edges) {
  for (LinkId pair : edges) by_edge_[pair].push_back(key);
}

void TreePlanCache::unindex(const Key* key, const std::vector<LinkId>& edges) {
  for (LinkId pair : edges) {
    const auto bucket = by_edge_.find(pair);
    if (bucket == by_edge_.end()) continue;
    std::erase(bucket->second, key);
    if (bucket->second.empty()) by_edge_.erase(bucket);
  }
}

}  // namespace peel
