// Collective phase primitives: how CollectiveRunner turns a request into
// streams. Internal to the runner (runner.cpp is the only includer); the
// public surface is src/collectives/runner.h.
//
// A collective is a sequence of phases, each a set of concurrent transfers.
// Two transfer primitives cover every scheme:
//   Overlay   — unicast streams between ranked endpoints (chains, rings,
//               binary trees). A rank holding a chunk sends it on each of
//               its out-edges except back to the chunk's origin; a rank with
//               nothing left to send is the chunk's last holder and hands it
//               to the next phase. A reduction overlay combines: a rank
//               holds a chunk once every in-edge has delivered it.
//   Multicast — one source to many over the scheme's in-network trees:
//               Optimal and PEEL (chunks striped round-robin over several
//               trees), Orca (trunk tree plus host relays fired on receipt),
//               InNet (one fused up+down reduce stream), and PEEL+ProgCores
//               (static trees whose unsent chunks migrate to the exact tree
//               once the controller is done).
// The third piece, Collective, is the phase sequencer: it owns the delivery
// ledger, hands chunks from phase to phase, and derives the deliveries a
// collective owes (and so its recovery) from its transfers.
//
// A delivery resolves by index: the runner's route table (indexed by
// StreamId) names its collective, Overlay edge and recovery flag, and the
// collective's ledger, built once from expected_deliveries(), holds the owed
// receivers of each wire chunk as a sorted row with one bit each, plus a
// count that completes the collective when it reaches the number owed. A set
// bit means a duplicate copy, ignored; a delivery the collective does not
// owe is a transfer or engine bug and throws std::logic_error.
//
// Each transfer owns a contiguous range of wire chunk ids, so a delivery
// finds its transfer by chunk id, and phases that share streams (the two
// halves of a ring AllReduce) never collide in the delivery ledger.
//
// Every scheme as phases (n ranks, sorted; rank 0 is the source or root):
//   Broadcast  Ring            Overlay chain 0 -> 1 -> ... -> n-1
//              Tree            Overlay binary tree down from rank 0
//              Optimal / PEEL  Multicast, optionally striped
//              Orca            Multicast after the controller delay
//              PEEL+ProgCores  Multicast, migrating after the delay
//   AllGather  Ring            Overlay ring, shard s from rank s
//              multicast       n concurrent Multicasts, one per shard
//   AllReduce  Ring            Overlay ring reduce-scatter, then the same
//                              ring's streams gather each shard from its
//                              last combiner
//              InNet           one fused Multicast
//              others          reduction Overlay up a binary tree, then
//                              rank 0 broadcasts each piece (Tree overlay
//                              or the scheme's Multicast)
#pragma once

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/collectives/runner.h"
#include "src/collectives/trees.h"

namespace peel {

struct CollectiveRunner::Transfer {
  int phase = 0;
  int first = 0;             ///< first wire chunk id owned
  std::vector<Bytes> sizes;  ///< per local chunk
  /// Injection streams: one per edge (Overlay) or per tree (Multicast).
  std::vector<StreamId> streams;

  virtual ~Transfer() = default;
  /// Wire chunk ids owned: [first, end()).
  [[nodiscard]] virtual int span() const { return chunk_count(); }
  [[nodiscard]] int end() const { return first + span(); }
  [[nodiscard]] int chunk_count() const { return static_cast<int>(sizes.size()); }

  virtual void open(Collective& c) = 0;
  /// Starts a first-phase transfer: whoever holds a chunk at the start
  /// injects it, chunk by chunk.
  virtual void launch(Collective& c) = 0;
  /// `rank` now holds local chunk `chunk`: send it on.
  virtual void inject(Collective& c, int chunk, std::size_t rank) = 0;
  /// A first copy of a delivery arrived on a non-recovery stream carrying
  /// Overlay edge `edge` (-1 for Multicast streams).
  virtual void on_receipt(Collective& /*c*/, const DeliveryEvent& /*ev*/,
                          int /*edge*/) {}
  /// Appends every delivery local chunk `chunk` owes, with the endpoint that
  /// holds its bytes.
  virtual void expect(int chunk, std::vector<ExpectedDelivery>& out) const = 0;
  /// Transfer-owned recovery, run before the generic origin->receiver pass:
  /// removes from `missing` every delivery the generic pass must not touch
  /// (re-sending them itself where possible) and returns the count it
  /// rescheduled. Deliveries removed but not rescheduled keep the damage
  /// mark set, so a later pass retries them.
  virtual std::size_t recover(Collective& /*c*/,
                              std::vector<ExpectedDelivery>& /*missing*/) {
    return 0;
  }
};

struct CollectiveRunner::Collective {
  CollectiveRunner* runner;
  std::uint64_t id;
  std::uint64_t job;
  /// In phase order; wire chunk ranges ascend with position.
  std::vector<std::unique_ptr<Transfer>> transfers;
  /// >= 0: open and launch this long after submission (Orca's controller
  /// setup — scheduled even when 0, which orders it after same-instant
  /// events).
  SimTime launch_delay = -1;
  std::size_t record = 0;         ///< index of its CollectiveRecord
  std::vector<StreamId> streams;  ///< every stream opened, recovery included
  /// Recovery streams from the latest pass, superseded (closed) by the next
  /// one so repeated passes under flapping never stack duplicate senders.
  std::vector<StreamId> open_recovery;
  /// A down delta hit one of its open streams and no recovery pass has
  /// covered every missing delivery since (see recover_all).
  bool damaged = false;
  // The delivery ledger (see the file comment): the receivers owed wire
  // chunk w are owed[row[w] .. row[w + 1]), sorted.
  std::vector<std::uint32_t> row;
  std::vector<NodeId> owed;
  std::vector<bool> have;     ///< parallel to owed
  std::size_t delivered = 0;  ///< set bits of `have`

  Collective(CollectiveRunner* r, std::uint64_t id_, std::uint64_t job_)
      : runner(r), id(id_), job(job_) {}

  /// Called once, after every transfer is added: buckets the owed
  /// deliveries by chunk, then sorts each row. Submit rejects repeated
  /// members, so no receiver appears twice in a row.
  void build_ledger() {
    const std::vector<ExpectedDelivery> all = expected_deliveries();
    row.assign(static_cast<std::size_t>(transfers.back()->end()) + 1, 0);
    for (const ExpectedDelivery& d : all) ++row[static_cast<std::size_t>(d.chunk) + 1];
    std::partial_sum(row.begin(), row.end(), row.begin());
    std::vector<std::uint32_t> next(row.begin(), row.end() - 1);
    owed.resize(all.size());
    for (const ExpectedDelivery& d : all) {
      owed[next[static_cast<std::size_t>(d.chunk)]++] = d.receiver;
    }
    for (std::size_t w = 0; w + 1 < row.size(); ++w) {
      std::sort(owed.begin() + row[w], owed.begin() + row[w + 1]);
    }
    have.assign(owed.size(), false);
  }

  /// Ledger slot of (receiver, chunk); throws if the collective does not
  /// owe it.
  [[nodiscard]] std::size_t slot(NodeId receiver, int chunk) const {
    const auto w = static_cast<std::size_t>(chunk);
    if (w < row.size() - 1) {
      const auto end = owed.begin() + row[w + 1];
      const auto it = std::lower_bound(owed.begin() + row[w], end, receiver);
      if (it != end && *it == receiver) {
        return static_cast<std::size_t>(it - owed.begin());
      }
    }
    throw std::logic_error("delivery of chunk " + std::to_string(chunk) +
                           " to node " + std::to_string(receiver) +
                           " is not owed by collective " + std::to_string(id));
  }

  Transfer& add(int phase, std::unique_ptr<Transfer> t) {
    t->phase = phase;
    t->first = transfers.empty() ? 0 : transfers.back()->end();
    transfers.push_back(std::move(t));
    return *transfers.back();
  }

  void start() {
    if (launch_delay < 0) return launch();
    schedule(launch_delay, [](Collective& c) { c.launch(); });
  }

  /// Opens every phase's streams up front, then starts the first phase.
  void launch() {
    for (auto& t : transfers) t->open(*this);
    for (auto& t : transfers) {
      if (t->phase == 0) t->launch(*this);
    }
  }

  [[nodiscard]] const Fabric& fabric() const { return runner->fabric_; }
  [[nodiscard]] DataPlane& net() const { return *runner->net_; }

  /// Opens a stream for this collective and files its route.
  StreamId open(StreamSpec spec, int edge = -1, bool recovery = false) {
    spec.tag = id;
    const StreamId s = net().open_stream(std::move(spec));
    std::vector<StreamRoute>& routes = runner->routes_;
    if (routes.size() <= static_cast<std::size_t>(s)) {
      routes.resize(static_cast<std::size_t>(s) + 1);
    }
    routes[static_cast<std::size_t>(s)] = {this, edge, recovery};
    streams.push_back(s);
    return s;
  }

  void send(StreamId s, int chunk, Bytes bytes) const {
    net().send_chunk(s, chunk, bytes);
  }

  /// Schedules `fn` against this collective, skipped if it has completed by
  /// then (it is destroyed on completion, so a raw `this` would dangle).
  void schedule(SimTime delay, void (*fn)(Collective&)) {
    CollectiveRunner* r = runner;
    r->queue_->after(delay, [r, cid = id, fn] {
      const auto it = r->collectives_.find(cid);
      if (it != r->collectives_.end()) fn(*it->second);
    });
  }

  /// `from`'s chunk reached its last holder `rank`: it enters the next phase
  /// there.
  void handoff(const Transfer& from, int chunk, std::size_t rank) {
    for (auto& t : transfers) {
      if (t->phase == from.phase + 1) t->inject(*this, chunk, rank);
    }
  }

  /// Returns true when the collective just completed. Deliveries on a
  /// recovery stream bypass the forwarding rules: the recovery pass covers
  /// successors itself.
  bool handle(const DeliveryEvent& ev, const StreamRoute& route) {
    const std::size_t i = slot(ev.receiver, ev.chunk);
    if (have[i]) return false;  // duplicate (e.g. redundant copy) — ignore
    have[i] = true;
    ++delivered;
    if (!route.recovery) {
      const auto owner = std::upper_bound(
          transfers.begin(), transfers.end(), ev.chunk,
          [](int chunk, const auto& t) { return chunk < t->first; });
      (*std::prev(owner))->on_receipt(*this, ev, route.edge);
    }
    return delivered == owed.size();
  }

  /// Chunk-major across transfers, so each (origin, receiver) pair's
  /// deliveries come out in the order recovery re-sends them.
  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const {
    std::vector<ExpectedDelivery> out;
    int chunks = 0;
    for (const auto& t : transfers) chunks = std::max(chunks, t->chunk_count());
    for (int c = 0; c < chunks; ++c) {
      for (const auto& t : transfers) {
        if (c < t->chunk_count()) t->expect(c, out);
      }
    }
    return out;
  }
};

struct CollectiveRunner::Overlay final : Transfer {
  enum class Shape {
    Chain,     ///< rank r -> r+1
    Ring,      ///< rank r -> (r+1) mod n
    TreeDown,  ///< binary tree, parent (r-1)/2 -> r
    TreeUp,    ///< binary tree, r -> parent (r-1)/2
  };
  /// origin value of a reduction chunk: every leaf contributes it.
  static constexpr int kEveryLeaf = -1;

  struct Edge {
    std::size_t from = 0;
    std::size_t to = 0;
    std::uint64_t path = 0;  ///< ECMP path index
  };

  const char* name;
  std::uint64_t salt;
  std::vector<NodeId> ranks;
  std::vector<Edge> edges;  ///< stream open order
  /// Per local chunk: the rank injecting it, or kEveryLeaf (reduction).
  std::vector<int> origin;
  /// Set for a phase over an earlier phase's edges: reuse its streams.
  const Overlay* reuse = nullptr;
  std::vector<std::vector<std::size_t>> out;  ///< edges by sending rank
  std::vector<int> in_degree;
  std::vector<std::vector<int>> waiting;  ///< reduction: [rank][chunk] in-edges owed

  Overlay(const char* name_, std::uint64_t salt_, Shape shape,
          std::vector<NodeId> ranks_, std::vector<Bytes> sizes_,
          std::vector<int> origin_)
      : name(name_), salt(salt_), ranks(std::move(ranks_)), origin(std::move(origin_)) {
    sizes = std::move(sizes_);
    const std::size_t n = ranks.size();
    for (std::size_t r = 0; r < n; ++r) {
      switch (shape) {
        case Shape::Chain:
          if (r + 1 < n) edges.push_back({r, r + 1, r});
          break;
        case Shape::Ring: edges.push_back({r, (r + 1) % n, r}); break;
        case Shape::TreeDown:
          if (r > 0) edges.push_back({(r - 1) / 2, r, r});
          break;
        case Shape::TreeUp:
          if (r > 0) edges.push_back({r, (r - 1) / 2, r});
          break;
      }
    }
    out.resize(n);
    in_degree.assign(n, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      out[edges[e].from].push_back(e);
      ++in_degree[edges[e].to];
    }
    if (reduces()) {
      waiting.resize(n);
      for (std::size_t r = 0; r < n; ++r) waiting[r].assign(sizes.size(), in_degree[r]);
    }
  }

  [[nodiscard]] bool reduces() const { return origin.front() == kEveryLeaf; }
  [[nodiscard]] int span() const override {
    return chunk_count() * (reduces() ? static_cast<int>(ranks.size()) : 1);
  }
  /// A reduction gives each edge its own id per chunk, so the contributions
  /// of a rank's children stay distinct deliveries.
  [[nodiscard]] int wire(int chunk, std::size_t from) const {
    return reduces() ? first + chunk * static_cast<int>(ranks.size()) +
                           static_cast<int>(from)
                     : first + chunk;
  }
  [[nodiscard]] int origin_of(int chunk) const {
    return origin[static_cast<std::size_t>(chunk)];
  }
  [[nodiscard]] bool into_origin(const Edge& e, int chunk) const {
    return static_cast<int>(e.to) == origin_of(chunk);
  }

  void open(Collective& c) override {
    if (reuse != nullptr) {  // same edges, so the routes' edge ids hold
      streams = reuse->streams;
      return;
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const Route route = c.runner->router_.path(
          ranks[edges[e].from], ranks[edges[e].to],
          ecmp_hash(c.id, edges[e].path, salt));
      if (route.links.empty()) {
        throw std::runtime_error(std::string(name) + ": endpoints disconnected");
      }
      StreamSpec spec = spec_from_route(route);
      spec.cnp_mode = CnpMode::ReceiverTimer;
      streams.push_back(c.open(std::move(spec), static_cast<int>(e)));
    }
  }

  void launch(Collective& c) override {
    // A reduction starts at every leaf; anything else at the chunk's origin.
    for (int k = 0; k < chunk_count(); ++k) {
      for (std::size_t r = 0; r < ranks.size(); ++r) {
        const bool holds = reduces() ? in_degree[r] == 0
                                     : origin_of(k) == static_cast<int>(r);
        if (holds) inject(c, k, r);
      }
    }
  }

  void inject(Collective& c, int chunk, std::size_t rank) override {
    bool sent = false;
    for (std::size_t e : out[rank]) {
      if (into_origin(edges[e], chunk)) continue;
      c.send(streams[e], wire(chunk, rank), sizes[static_cast<std::size_t>(chunk)]);
      sent = true;
    }
    if (!sent) c.handoff(*this, chunk, rank);
  }

  void on_receipt(Collective& c, const DeliveryEvent& ev, int edge) override {
    const std::size_t rank = edges[static_cast<std::size_t>(edge)].to;
    const int chunk =
        (ev.chunk - first) / (reduces() ? static_cast<int>(ranks.size()) : 1);
    if (reduces() && --waiting[rank][static_cast<std::size_t>(chunk)] > 0) return;
    inject(c, chunk, rank);
  }

  void expect(int chunk, std::vector<ExpectedDelivery>& out_) const override {
    // A relayed chunk is re-sent by its origin; a reduction contribution by
    // the child that owes it (the simulation carries sizes, not values).
    for (const Edge& e : edges) {
      if (into_origin(e, chunk)) continue;
      const auto holder =
          reduces() ? e.from : static_cast<std::size_t>(origin_of(chunk));
      out_.push_back({ranks[e.to], wire(chunk, e.from), ranks[holder],
                      sizes[static_cast<std::size_t>(chunk)]});
    }
  }
};

struct CollectiveRunner::Multicast final : Transfer {
  Scheme scheme;
  NodeId source;
  std::vector<NodeId> dests;
  std::uint64_t selector;  ///< stripe t builds its trees with selector + t
  bool asymmetric;         ///< PEEL over §2.3 layer-peel trees
  int stripes = 1;
  SimTime migrate_after = -1;  ///< PEEL+ProgCores: controller setup delay
  std::vector<int> stripe_of;  ///< parallel to streams
  // Orca: designated-host relays, fired once per (host, chunk).
  std::unordered_map<NodeId, NodeId> host_of;
  std::unordered_map<NodeId, std::vector<StreamId>> relays_of;
  std::unordered_set<std::uint64_t> relayed;

  Multicast(Scheme scheme_, NodeId source_, std::vector<NodeId> dests_,
            std::vector<Bytes> sizes_, std::uint64_t selector_, bool asymmetric_)
      : scheme(scheme_),
        source(source_),
        dests(std::move(dests_)),
        selector(selector_),
        asymmetric(asymmetric_) {
    sizes = std::move(sizes_);
  }

  void add_stream(Collective& c, StreamSpec spec, int stripe) {
    spec.cnp_mode = c.runner->options_.multicast_cnp_mode;
    streams.push_back(c.open(std::move(spec)));
    stripe_of.push_back(stripe);
  }

  void open(Collective& c) override {
    if (scheme == Scheme::Orca) return open_orca(c);
    if (scheme == Scheme::InNet) return add_stream(c, fused_spec(c, false), 0);
    for (int t = 0; t < stripes; ++t) {
      const std::uint64_t sel = selector + static_cast<std::uint64_t>(t);
      std::shared_ptr<const std::vector<PeelStream>> parts;
      if (scheme == Scheme::Optimal) {
        parts = std::make_shared<const std::vector<PeelStream>>(1, PeelStream{
            optimal_tree(c.fabric(), source, dests, sel), dests});
      } else if (asymmetric) {
        parts = c.runner->asymmetric_trees_for(source, dests);
      } else {
        // The plan is selector-free (cache-friendly across stripes and
        // repeated groups); the tree choice still varies by selector.
        parts = std::make_shared<const std::vector<PeelStream>>(peel_static_trees(
            c.fabric(), *c.runner->peel_plan_for(source, dests), sel));
      }
      std::size_t covered = 0;
      for (const PeelStream& part : *parts) {
        covered += part.receivers.size();
        if (part.receivers.empty()) continue;  // purely redundant packet class
        add_stream(c, spec_from_tree(part.tree, part.receivers), t);
      }
      if (covered != dests.size()) {
        throw std::logic_error("multicast streams do not partition the group");
      }
    }
  }

  void open_orca(Collective& c) {
    const Topology& topo = c.fabric().topo();
    const OrcaProgram program =
        orca_program(c.fabric(), c.runner->router_, source, dests, selector);
    add_stream(c, spec_from_tree(program.trunk, program.trunk_receivers), 0);
    for (NodeId e : program.trunk_receivers) {
      host_of[e] = topo.kind(e) == NodeKind::Gpu ? topo.host_of(e) : e;
    }
    for (const auto& relay : program.relays) {
      StreamSpec spec = spec_from_route(relay.route);
      // Extend the relay with NVLink fan-out to member GPUs.
      const NodeId peer = relay.route.nodes.back();
      spec.receivers.clear();
      for (NodeId e : relay.endpoints) {
        if (e != peer) spec.links.push_back(topo.find_link(peer, e));
        spec.receivers.push_back(e);
      }
      spec.cnp_mode = CnpMode::ReceiverTimer;
      relays_of[relay.designated_host].push_back(c.open(std::move(spec)));
    }
  }

  /// InNet: the PEEL prefix parts fused into ONE stream (innet_fused_spec)
  /// whose links are the merged member-serving tree rerooted at the
  /// pivot. Members pace contributions up its exact mirror, switches
  /// combine in SRAM, and the combined bytes come back down as the prefix
  /// multicast. `live` (or a plan that no longer fits — a mid-outage
  /// submission crossing a dead link, or a surgically repaired part that
  /// pruned a member-serving branch) fuses one live layer-peel tree
  /// instead; that throws if a member is unreachable.
  [[nodiscard]] StreamSpec fused_spec(Collective& c, bool live) const {
    std::vector<NodeId> members{source};
    members.insert(members.end(), dests.begin(), dests.end());
    const Topology& topo = c.fabric().topo();
    if (!live) {
      try {
        const auto plan = c.runner->reduce_plan_for(source, dests);
        std::size_t covered = 0;
        for (const auto& part : *plan) covered += part.receivers.size();
        if (covered != dests.size()) {
          throw std::runtime_error("in-network reduce parts do not partition");
        }
        return innet_fused_spec(topo, *plan, source, members);
      } catch (const std::exception&) {
      }
    }
    return innet_fused_spec(topo, *c.runner->recovery_tree_for(source, dests),
                            source, members);
  }

  void launch(Collective& c) override {
    for (int k = 0; k < chunk_count(); ++k) inject(c, k, 0);
    if (migrate_after >= 0 && streams.size() > 1) {
      c.schedule(migrate_after, [](Collective& col) {
        static_cast<Multicast&>(*col.transfers.front()).migrate(col);
      });
    }
  }

  void inject(Collective& c, int chunk, std::size_t /*rank*/) override {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (stripe_of[i] == chunk % stripes) {
        c.send(streams[i], first + chunk, sizes[static_cast<std::size_t>(chunk)]);
      }
    }
  }

  /// PEEL+ProgCores (§3.3): chunks cancelled on *every* static stream move
  /// to the exact tree and cross the fabric as one copy; chunks already in
  /// flight somewhere are re-queued where they were.
  void migrate(Collective& c) {
    std::vector<std::vector<int>> cancelled(streams.size());
    std::vector<std::size_t> cancels(sizes.size(), 0);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      cancelled[i] = c.net().cancel_unsent_chunks(streams[i]);
      for (int k : cancelled[i]) ++cancels[static_cast<std::size_t>(k - first)];
    }
    const auto moves = [&](int k) {
      return cancels[static_cast<std::size_t>(k - first)] == streams.size();
    };
    for (std::size_t i = 0; i < streams.size(); ++i) {
      for (int k : cancelled[i]) {
        if (!moves(k)) c.send(streams[i], k, sizes[static_cast<std::size_t>(k - first)]);
      }
    }
    StreamId exact = -1;
    for (int k = first; k < first + chunk_count(); ++k) {
      if (!moves(k)) continue;
      if (exact < 0) {
        StreamSpec spec = spec_from_tree(
            optimal_tree(c.fabric(), source, dests, selector), dests);
        spec.cnp_mode = c.runner->options_.multicast_cnp_mode;
        exact = c.open(std::move(spec));
      }
      c.send(exact, k, sizes[static_cast<std::size_t>(k - first)]);
    }
  }

  void on_receipt(Collective& c, const DeliveryEvent& ev, int /*edge*/) override {
    if (scheme != Scheme::Orca) return;
    const auto host = host_of.find(ev.receiver);
    if (host == host_of.end()) return;  // not a trunk receiver
    const auto relays = relays_of.find(host->second);
    if (relays == relays_of.end()) return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host->second)) << 32) |
        static_cast<std::uint32_t>(ev.chunk);
    if (!relayed.insert(key).second) return;
    for (StreamId s : relays->second) {
      c.send(s, ev.chunk, sizes[static_cast<std::size_t>(ev.chunk - first)]);
    }
  }

  void expect(int chunk, std::vector<ExpectedDelivery>& out) const override {
    // InNet: the reversed trunk makes the initiator an ordinary leaf of the
    // down-tree, so it is owed every combined piece too. Its origin is
    // nominal — no endpoint holds switch-combined bytes (see recover).
    const Bytes bytes = sizes[static_cast<std::size_t>(chunk)];
    if (scheme == Scheme::InNet) out.push_back({source, first + chunk, source, bytes});
    for (NodeId r : dests) out.push_back({r, first + chunk, source, bytes});
  }

  std::size_t recover(Collective& c, std::vector<ExpectedDelivery>& missing) override {
    // InNet (always its collective's only transfer) claims everything: the
    // generic pass cannot re-send switch-combined bytes, and a partially
    // combined piece cannot be patched per receiver — the whole reduction
    // re-runs over a fresh tree on live links. If some member is
    // unreachable right now nothing is rescheduled and nothing is left to
    // the generic pass, which keeps the damage mark set so a later pass
    // (after repair) retries.
    if (scheme != Scheme::InNet || missing.empty()) return 0;
    std::vector<int> redo;
    for (const ExpectedDelivery& d : missing) redo.push_back(d.chunk);
    std::sort(redo.begin(), redo.end());
    redo.erase(std::unique(redo.begin(), redo.end()), redo.end());
    StreamSpec spec;
    try {
      spec = fused_spec(c, true);
    } catch (const std::exception&) {
      missing.clear();
      return 0;
    }
    spec.cnp_mode = c.runner->options_.multicast_cnp_mode;
    // Supersede the damaged stream: its in-flight contributions drop with
    // it (the byte audit treats closed streams as superseded) and the fresh
    // stream's ledger restarts the exactly-once accounting from zero —
    // contributions can neither drop nor double-count across the repair.
    const std::size_t rescheduled = missing.size();
    missing.clear();
    c.net().close_stream(streams.front());
    const StreamId s = c.open(std::move(spec));
    // Deliberately NOT a recovery stream: member deliveries must still fire
    // so the collective can finish.
    c.open_recovery.push_back(s);
    streams.front() = s;
    for (int cid : redo) c.send(s, cid, sizes[static_cast<std::size_t>(cid - first)]);
    return rescheduled;
  }
};

}  // namespace peel
