#include "src/collectives/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>

#include "src/collectives/phases.h"
#include "src/steiner/layer_peel.h"

namespace peel {

const char* to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::Ring: return "Ring";
    case Scheme::BinaryTree: return "Tree";
    case Scheme::Optimal: return "Optimal";
    case Scheme::Orca: return "Orca";
    case Scheme::Peel: return "PEEL";
    case Scheme::PeelProgCores: return "PEEL+ProgCores";
    case Scheme::InNet: return "InNet";
  }
  return "?";
}

void require_supported(Scheme scheme, CollectiveKind kind) {
  if (kind == CollectiveKind::Broadcast && scheme == Scheme::InNet) {
    throw std::invalid_argument(
        "broadcast does not support InNet (no reduction phase to offload); "
        "use Peel for the multicast itself");
  }
  if (kind == CollectiveKind::AllGather && scheme == Scheme::BinaryTree) {
    throw std::invalid_argument("AllGather does not support BinaryTree");
  }
  if (kind == CollectiveKind::AllGather && scheme == Scheme::InNet) {
    throw std::invalid_argument(
        "AllGather does not support InNet (nothing to reduce; every shard is "
        "already a plain multicast)");
  }
  if (kind == CollectiveKind::AllReduce && scheme == Scheme::Orca) {
    throw std::invalid_argument(
        "AllReduce does not support Orca (its host-relay model has no "
        "reduction phase); use Optimal with controller_delay instead");
  }
}

CollectiveRunner::CollectiveRunner(Fabric fabric, DataPlane& net,
                                   EventQueue& queue, Rng rng,
                                   RunnerOptions options)
    : fabric_(fabric),
      net_(&net),
      queue_(&queue),
      rng_(rng),
      options_(options),
      router_(fabric.topo()) {
  net_->set_delivery_handler(
      [this](const DeliveryEvent& ev) { handle_delivery(ev); });
}

CollectiveRunner::~CollectiveRunner() { net_->set_delivery_handler({}); }

std::vector<NodeId> CollectiveRunner::admit(std::uint64_t id,
                                            std::vector<NodeId> members,
                                            const char* what) const {
  if (collectives_.contains(id)) throw std::invalid_argument("duplicate collective id");
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    throw std::invalid_argument("endpoint listed more than once in " + std::string(what));
  }
  return members;
}

SimTime CollectiveRunner::draw_setup_delay(bool pays) {
  if (!pays || !options_.controller_delay_enabled) return 0;
  return static_cast<SimTime>(rng_.normal_truncated(
      static_cast<double>(options_.controller_mean),
      static_cast<double>(options_.controller_stddev), 0.0));
}

void CollectiveRunner::submit(Scheme scheme, BroadcastRequest request) {
  if (request.destinations.empty() || request.message_bytes <= 0) {
    throw std::invalid_argument("broadcast needs destinations and a payload");
  }
  if (std::find(request.destinations.begin(), request.destinations.end(),
                request.source) != request.destinations.end()) {
    throw std::invalid_argument("broadcast source is listed among its destinations");
  }
  const std::vector<NodeId> sorted =
      admit(request.id, request.destinations, "broadcast destinations");
  require_supported(scheme, CollectiveKind::Broadcast);
  const SimTime setup = draw_setup_delay(scheme == Scheme::Orca ||
                                         scheme == Scheme::PeelProgCores);
  auto col = std::make_unique<Collective>(this, request.id, request.job);
  std::vector<Bytes> chunks = split_chunks(request.message_bytes, options_.chunks);
  const std::size_t group = request.destinations.size();

  if (scheme == Scheme::Ring || scheme == Scheme::BinaryTree) {
    // Locality order: the source, then the members sorted.
    std::vector<NodeId> order{request.source};
    order.insert(order.end(), sorted.begin(), sorted.end());
    const bool ring = scheme == Scheme::Ring;
    std::vector<int> origin(chunks.size(), 0);
    col->add(0, std::make_unique<Overlay>(
                    ring ? "ring" : "binary tree",
                    ring ? 0x7269'6e67ULL : 0x7472'6565ULL,
                    ring ? Overlay::Shape::Chain : Overlay::Shape::TreeDown,
                    std::move(order), std::move(chunks), std::move(origin)));
  } else {
    auto m = std::make_unique<Multicast>(scheme, request.source,
                                         std::move(request.destinations),
                                         std::move(chunks), request.id,
                                         options_.peel_asymmetric);
    if (scheme == Scheme::Optimal || scheme == Scheme::Peel) {
      // Striping (§2.3's multicast-vs-multipath question): chunks
      // round-robin over trees that differ in their core/aggregation choice.
      // Asymmetric greedy trees are failure-shaped and not striped.
      m->selector = request.id * 1000003ULL;
      m->stripes = options_.peel_asymmetric ? 1 : std::max(1, options_.stripe_trees);
    } else if (scheme == Scheme::Orca) {
      col->launch_delay = setup;
    } else {  // PeelProgCores: PEEL's fast start now, the exact tree later
      m->migrate_after = setup;
    }
    col->add(0, std::move(m));
  }
  register_collective(std::move(col), scheme, setup, request.message_bytes, group);
}

void CollectiveRunner::submit_allgather(Scheme scheme, AllGatherRequest request) {
  if (request.members.size() < 2 || request.total_bytes <= 0) {
    throw std::invalid_argument("allgather needs >= 2 members and a payload");
  }
  const std::vector<NodeId> members = admit(request.id, request.members, "allgather members");
  const std::size_t n = members.size();
  if (request.total_bytes < static_cast<Bytes>(n)) {
    throw std::invalid_argument("allgather shards need at least one byte each");
  }
  require_supported(scheme, CollectiveKind::AllGather);
  const SimTime setup = draw_setup_delay(scheme == Scheme::Orca);
  // One chunk per member shard; every member receives the n-1 other shards.
  std::vector<Bytes> shards = split_chunks(request.total_bytes, static_cast<int>(n));
  auto col = std::make_unique<Collective>(this, request.id, request.job);

  if (scheme == Scheme::Ring) {
    // Shard s starts at rank s and rotates until the rank before it.
    std::vector<int> origin(n);
    std::iota(origin.begin(), origin.end(), 0);
    col->add(0, std::make_unique<Overlay>("allgather ring", 0xa11'6a74ULL,
                                          Overlay::Shape::Ring, members,
                                          std::move(shards), std::move(origin)));
  } else {
    // One multicast per member shard, all concurrent (PeelProgCores runs its
    // static plan: per-shard migration would move at most one chunk).
    if (scheme == Scheme::Orca) col->launch_delay = setup;
    for (std::size_t r = 0; r < n; ++r) {
      std::vector<NodeId> dests;
      dests.reserve(n - 1);
      for (NodeId m : members) {
        if (m != members[r]) dests.push_back(m);
      }
      col->add(0, std::make_unique<Multicast>(
                      scheme, members[r], std::move(dests),
                      std::vector<Bytes>{shards[r]}, request.id * 7919ULL + r,
                      options_.peel_asymmetric));
    }
  }
  register_collective(std::move(col), scheme, setup, request.total_bytes, n);
}

void CollectiveRunner::submit_allreduce(Scheme scheme, AllReduceRequest request) {
  if (request.members.size() < 2 || request.buffer_bytes <= 0) {
    throw std::invalid_argument("allreduce needs >= 2 members and a payload");
  }
  const std::vector<NodeId> members = admit(request.id, request.members, "allreduce members");
  require_supported(scheme, CollectiveKind::AllReduce);
  const std::size_t n = members.size();
  auto col = std::make_unique<Collective>(this, request.id, request.job);

  if (scheme == Scheme::Ring) {
    // Reduce-scatter then all-gather around one ring: shard s combines from
    // rank s to rank s-1, which then circulates the result to everyone.
    if (request.buffer_bytes < static_cast<Bytes>(n)) {
      throw std::invalid_argument("allreduce shards need at least one byte each");
    }
    const std::vector<Bytes> shards =
        split_chunks(request.buffer_bytes, static_cast<int>(n));
    std::vector<int> origin(n);
    std::vector<int> combiner(n);
    for (std::size_t s = 0; s < n; ++s) {
      origin[s] = static_cast<int>(s);
      combiner[s] = static_cast<int>((s + n - 1) % n);
    }
    auto& scatter = col->add(
        0, std::make_unique<Overlay>("allreduce ring", 0xa11'5edULL,
                                     Overlay::Shape::Ring, members, shards,
                                     std::move(origin)));
    auto gather = std::make_unique<Overlay>("allreduce ring", 0xa11'5edULL,
                                            Overlay::Shape::Ring, members, shards,
                                            std::move(combiner));
    gather->reuse = static_cast<const Overlay*>(&scatter);
    col->add(1, std::move(gather));
  } else {
    std::vector<Bytes> pieces = split_chunks(request.buffer_bytes, options_.chunks);
    std::vector<NodeId> others(members.begin() + 1, members.end());
    if (scheme == Scheme::InNet) {
      col->add(0, std::make_unique<Multicast>(scheme, members[0], std::move(others),
                                              std::move(pieces), 0, false));
    } else {
      // Gradients combine up a binary rank tree at the hosts, then rank 0
      // broadcasts each reduced piece with the scheme's own machinery.
      col->add(0, std::make_unique<Overlay>(
                      "allreduce tree", 0x5edcefULL, Overlay::Shape::TreeUp,
                      members, pieces,
                      std::vector<int>(pieces.size(), Overlay::kEveryLeaf)));
      if (scheme == Scheme::BinaryTree) {
        col->add(1, std::make_unique<Overlay>(
                        "allreduce tree", 0xb0a'dca57ULL, Overlay::Shape::TreeDown,
                        members, pieces, std::vector<int>(pieces.size(), 0)));
      } else {
        col->add(1, std::make_unique<Multicast>(scheme, members[0], std::move(others),
                                                std::move(pieces), request.id,
                                                options_.peel_asymmetric));
      }
    }
  }
  register_collective(std::move(col), scheme, 0, request.buffer_bytes, n);
}

std::shared_ptr<const PeelPlan> CollectiveRunner::peel_plan_for(
    NodeId source, const std::vector<NodeId>& dests) {
  // build_peel_plan never reads the failure set (symmetric prefix cover), so
  // the entry carries no edges and survives every topology delta.
  return plan_cache_.get_or_build(PlanKind::PeelPlan, source, dests,
                                  options_.peel_cover, [&] {
    return fabric_.fat_tree ? build_peel_plan(*fabric_.fat_tree, source, dests,
                                              options_.peel_cover)
                            : build_peel_plan(*fabric_.leaf_spine, source, dests,
                                              options_.peel_cover);
  });
}

std::shared_ptr<const std::vector<PeelStream>> CollectiveRunner::reduce_plan_for(
    NodeId root, const std::vector<NodeId>& dests) {
  // Selector 0: the reduce plan must be deterministic per (root, group) so
  // repeated collectives share one cached artifact — stripe variety buys
  // nothing here, the mirror is fixed by the forward cover anyway.
  return plan_cache_.get_or_build(PlanKind::ReducePlan, root, dests,
                                  options_.peel_cover, [&] {
    return peel_static_trees(fabric_, *peel_plan_for(root, dests), 0);
  });
}

std::shared_ptr<const std::vector<PeelStream>>
CollectiveRunner::asymmetric_trees_for(NodeId source,
                                       const std::vector<NodeId>& dests) {
  if (!fabric_.leaf_spine) {
    throw std::runtime_error("asymmetric PEEL requires a leaf-spine fabric");
  }
  // Asymmetric trees ignore the cover policy; a fixed cover keeps keys from
  // splitting on an input the builder never reads.
  return plan_cache_.get_or_build(PlanKind::PeelAsymmetric, source, dests,
                                  PeelCoverOptions{}, [&] {
    return peel_asymmetric_trees(*fabric_.leaf_spine, source, dests);
  });
}

std::shared_ptr<const std::vector<PeelStream>> CollectiveRunner::recovery_tree_for(
    NodeId origin, const std::vector<NodeId>& receivers) {
  return plan_cache_.get_or_build(PlanKind::RecoveryTree, origin, receivers,
                                  PeelCoverOptions{}, [&] {
    std::vector<PeelStream> whole;
    whole.push_back(
        PeelStream{layer_peel_tree(fabric_.topo(), origin, receivers), receivers});
    return whole;
  });
}

void CollectiveRunner::on_topology_delta(const TopologyDelta& delta) {
  const auto apply_start = std::chrono::steady_clock::now();
  const PlanCacheStats cache_before = plan_cache_.stats();
  router_.on_topology_delta(delta);
  // Mark the collectives this outage actually hit: only a stream forwarding
  // over a failed pair can lose deliveries (the Network drops its queued and
  // in-flight segments via the fail epoch), so recover_all can skip every
  // other collective instead of re-sending traffic that is merely in
  // flight. Up transitions lose nothing and mark nothing.
  for (const LinkId pair : delta.down_pairs) {
    const LinkId rev = fabric_.topo().reverse_of(pair);
    for (const auto& [id, col] : collectives_) {
      if (col->damaged) continue;
      for (const StreamId s : col->streams) {
        if (net_->stream_uses_link(s, pair) || net_->stream_uses_link(s, rev)) {
          col->damaged = true;
          break;
        }
      }
    }
  }
  plan_cache_.apply_delta(delta, fabric_.topo());
  const PlanCacheStats cache_after = plan_cache_.stats();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - apply_start)
                        .count();
  ++delta_stats_.deltas;
  delta_stats_.total_us += us;
  delta_stats_.max_us = std::max(delta_stats_.max_us, us);
  delta_stats_.plans_repaired += cache_after.repairs - cache_before.repairs;
  delta_stats_.plans_evicted +=
      cache_after.invalidations - cache_before.invalidations;
}

std::size_t CollectiveRunner::recover_collective(std::uint64_t id) {
  const auto it = collectives_.find(id);
  if (it == collectives_.end()) return 0;
  Collective& col = *it->second;

  std::vector<ExpectedDelivery> missing;
  for (const ExpectedDelivery& d : col.expected_deliveries()) {
    if (!col.have[col.slot(d.receiver, d.chunk)]) missing.push_back(d);
  }

  // Supersede the previous pass: whatever it still had in flight is
  // re-enumerated above, and closing keeps repeated passes (one per flap)
  // from stacking duplicate senders. In-flight segments of a closed stream
  // drop silently; the byte audit treats such streams as superseded.
  for (StreamId s : col.open_recovery) net_->close_stream(s);
  col.open_recovery.clear();

  if (missing.empty()) {
    col.damaged = false;
    return 0;
  }

  // Transfer-owned recovery first: a transfer whose deliveries cannot be
  // re-sent by any single endpoint (InNet's switch-combined reduce pieces)
  // claims them out of `missing` and re-schedules them itself.
  const std::size_t total = missing.size();
  std::size_t rescheduled = 0;
  for (const auto& t : col.transfers) rescheduled += t->recover(col, missing);

  // Deterministic grouping: origins and receivers in ascending id order.
  std::map<NodeId, std::map<NodeId, std::vector<const ExpectedDelivery*>>> groups;
  for (const ExpectedDelivery& d : missing) {
    groups[d.origin][d.receiver].push_back(&d);
  }

  for (const auto& [origin, by_receiver] : groups) {
    // Several receivers of one origin share a fresh layer-peel multicast
    // tree: one copy of each missing chunk serves the whole group, and
    // receivers that already hold it get a duplicate the ledger ignores.
    // Unreachable receivers (no tree) fall back to per-receiver unicasts.
    std::shared_ptr<const std::vector<PeelStream>> tree;
    if (options_.recovery_trees && by_receiver.size() >= 2) {
      std::vector<NodeId> receivers;
      for (const auto& [receiver, chunks] : by_receiver) receivers.push_back(receiver);
      try {
        tree = recovery_tree_for(origin, receivers);
      } catch (const std::exception&) {
      }
      if (tree) {
        StreamSpec spec = spec_from_tree(tree->front().tree, receivers);
        spec.cnp_mode = options_.multicast_cnp_mode;
        const StreamId s = col.open(std::move(spec), -1, /*recovery=*/true);
        col.open_recovery.push_back(s);
        std::map<int, Bytes> chunks;
        for (const auto& [receiver, owed] : by_receiver) {
          for (const ExpectedDelivery* d : owed) chunks[d->chunk] = d->bytes;
          rescheduled += owed.size();
        }
        for (const auto& [chunk, bytes] : chunks) net_->send_chunk(s, chunk, bytes);
        continue;
      }
    }
    for (const auto& [receiver, chunks] : by_receiver) {
      const Route route = router_.path(
          origin, receiver,
          ecmp_hash(id, static_cast<std::uint64_t>(receiver), 0x2eC0'7e2ULL));
      if (route.links.empty()) continue;  // unreachable: a later pass retries
      StreamSpec spec = spec_from_route(route);
      spec.cnp_mode = CnpMode::ReceiverTimer;
      const StreamId s = col.open(std::move(spec), -1, /*recovery=*/true);
      col.open_recovery.push_back(s);
      for (const ExpectedDelivery* d : chunks) {
        net_->send_chunk(s, d->chunk, d->bytes);
        ++rescheduled;
      }
    }
  }
  // Full coverage clears the damage mark; a partial pass (some receiver
  // unreachable over live links) keeps it, so the next recover_all — e.g.
  // after a link-up delta — retries the remainder.
  if (rescheduled == total) col.damaged = false;
  return rescheduled;
}

std::size_t CollectiveRunner::recover_all() {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, col] : collectives_) {
    if (col->damaged) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::size_t rescheduled = 0;
  for (std::uint64_t id : ids) rescheduled += recover_collective(id);
  return rescheduled;
}

void CollectiveRunner::register_collective(std::unique_ptr<Collective> collective,
                                           Scheme scheme, SimTime setup_delay,
                                           Bytes message_bytes,
                                           std::size_t group_size) {
  collective->build_ledger();
  CollectiveRecord record;
  record.id = collective->id;
  record.job = collective->job;
  record.scheme = scheme;
  record.submit_time = queue_->now();
  record.setup_delay = setup_delay;
  record.message_bytes = message_bytes;
  record.group_size = group_size;
  collective->record = records_.size();
  records_.push_back(record);

  auto [it, inserted] = collectives_.emplace(record.id, std::move(collective));
  it->second->start();
}

void CollectiveRunner::handle_delivery(const DeliveryEvent& ev) {
  const auto s = static_cast<std::size_t>(ev.stream);
  if (s >= routes_.size() || routes_[s].owner == nullptr) {
    return;  // stray delivery after completion
  }
  const StreamRoute route = routes_[s];
  if (route.owner->handle(ev, route)) finish_collective(*route.owner);
}

void CollectiveRunner::finish_collective(Collective& col) {
  auto& record = records_[col.record];
  record.finished = true;
  record.finish_time = queue_->now();
  for (StreamId s : col.streams) {
    net_->close_stream(s);
    routes_[static_cast<std::size_t>(s)] = {};
  }
  const std::uint64_t id = col.id;
  collectives_.erase(id);  // destroys `col`
  // The handler may submit follow-up collectives, which re-enter
  // register_collective and can reallocate records_ — hand it a copy.
  if (finish_handler_) {
    const CollectiveRecord copy = record;
    finish_handler_(copy);
  }
}

std::vector<StuckFlowInfo> CollectiveRunner::stuck_flows() const {
  std::vector<StuckFlowInfo> out;
  out.reserve(collectives_.size());
  for (const auto& [id, col] : collectives_) {
    const CollectiveRecord& record = records_[col->record];
    StuckFlowInfo info;
    info.id = id;
    info.scheme = record.scheme;
    info.submit_time = record.submit_time;
    info.delivered = col->delivered;
    info.expected = col->owed.size();
    for (const auto& t : col->transfers) {
      // A transfer's deliveries are the ledger rows of its wire chunks.
      const auto p = static_cast<std::size_t>(t->phase);
      if (info.phases.size() <= p) info.phases.resize(p + 1);
      const auto begin = col->have.begin() + col->row[static_cast<std::size_t>(t->first)];
      const auto end = col->have.begin() + col->row[static_cast<std::size_t>(t->end())];
      info.phases[p].expected += static_cast<std::size_t>(end - begin);
      info.phases[p].delivered += static_cast<std::size_t>(std::count(begin, end, true));
    }
    info.streams.reserve(col->streams.size());
    for (StreamId s : col->streams) {
      info.streams.push_back(net_->stream_diagnostic(s));
    }
    out.push_back(std::move(info));
  }
  // collectives_ iteration order is unspecified; sort for deterministic reports.
  std::sort(out.begin(), out.end(),
            [](const StuckFlowInfo& a, const StuckFlowInfo& b) {
              return a.id < b.id;
            });
  return out;
}

std::string format_stuck_flows(const std::vector<StuckFlowInfo>& flows) {
  std::string out;
  char buf[256];
  for (const StuckFlowInfo& f : flows) {
    std::snprintf(buf, sizeof buf,
                  "  collective %llu (%s, submitted t=%lld ns): %zu/%zu "
                  "deliveries done",
                  static_cast<unsigned long long>(f.id), to_string(f.scheme),
                  static_cast<long long>(f.submit_time), f.delivered,
                  f.expected);
    out += buf;
    if (f.phases.size() > 1) {  // where a multi-phase collective stalled
      for (std::size_t p = 0; p < f.phases.size(); ++p) {
        std::snprintf(buf, sizeof buf, "%s phase %zu: %zu/%zu", p == 0 ? ";" : ",",
                      p, f.phases[p].delivered, f.phases[p].expected);
        out += buf;
      }
    }
    out += '\n';
    for (const StreamDiagnostic& d : f.streams) {
      if (d.closed) continue;  // finished streams carry no signal
      std::snprintf(
          buf, sizeof buf,
          "    stream %d: %zu incomplete deliveries, %zu chunks (%lld bytes) "
          "not yet injected%s%s\n",
          d.stream, d.incomplete_deliveries, d.pending_chunks,
          static_cast<long long>(d.bytes_pending_injection),
          d.pump_blocked ? ", pump BLOCKED on full source buffer" : "",
          d.pump_scheduled ? ", pump scheduled" : "");
      out += buf;
    }
  }
  return out;
}

void enforce_all_finished(const CollectiveRunner& runner,
                          const std::string& context) {
  std::vector<StuckFlowInfo> flows = runner.stuck_flows();
  if (flows.empty()) return;
  std::string what = "stuck-flow watchdog: " + context + " with " +
                     std::to_string(flows.size()) +
                     " unfinished collective(s)\n" + format_stuck_flows(flows);
  throw StuckFlowError(std::move(what), std::move(flows));
}

}  // namespace peel
