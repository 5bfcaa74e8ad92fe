// Differential reduction-audit layer for the in-network AllReduce (InNet):
// the switch-combining reduce trees + PEEL prefix multicast must produce the
// same result — every rank holding the full reduced buffer, every piece
// exactly once — as the host-side baselines (Ring reduce-scatter/all-gather
// and the binary-rank-tree reduce + multicast broadcast), with the reduction
// ledger armed the whole time.
//
// The simulator is byte-accurate, not value-accurate, so "identical result"
// means: per rank, the delivered (piece -> bytes) coverage reconstructs the
// buffer exactly once, and the telemetry conservation audit (which for
// reduce streams is the exactly-once contribution ledger) is clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/collectives/trees.h"
#include "src/harness/experiment.h"
#include "src/prefix/plan.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/topology/fat_tree.h"

namespace peel {
namespace {

/// Pass-through DataPlane that chains the delivery handler so the test can
/// observe every (receiver, chunk) completion the runner consumes.
struct RecordingPlane : DataPlane {
  DataPlane* inner;
  std::vector<DeliveryEvent> deliveries;

  explicit RecordingPlane(DataPlane& net) : inner(&net) {}

  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    if (!handler) {
      inner->set_delivery_handler({});
      return;
    }
    inner->set_delivery_handler([this, handler](const DeliveryEvent& ev) {
      deliveries.push_back(ev);
      handler(ev);
    });
  }
  StreamId open_stream(StreamSpec spec) override {
    return inner->open_stream(std::move(spec));
  }
  void send_chunk(StreamId s, int chunk, Bytes bytes) override {
    inner->send_chunk(s, chunk, bytes);
  }
  std::vector<int> cancel_unsent_chunks(StreamId s) override {
    return inner->cancel_unsent_chunks(s);
  }
  void close_stream(StreamId s) override { inner->close_stream(s); }
  void on_duplex_failed(LinkId l) override { inner->on_duplex_failed(l); }
  void on_duplex_restored(LinkId l) override { inner->on_duplex_restored(l); }
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override {
    return inner->stream_uses_link(s, l);
  }
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override {
    return inner->stream_diagnostic(s);
  }
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return inner->link_bytes(l);
  }
};

struct RunResult {
  bool finished = false;
  SimTime finish_time = 0;
  std::vector<DeliveryEvent> deliveries;
  std::vector<std::string> violations;
  std::vector<NodeId> order;  ///< sorted members; order[0] = root for trees
  Bytes buffer = 0;
  int chunks = 0;
  Bytes reduce_sram_peak = 0;  ///< switch combining SRAM high-water mark
};

RunResult run_allreduce(const FatTree& ft, Scheme scheme,
                        std::vector<NodeId> members, Bytes buffer,
                        int chunks = 4) {
  EventQueue queue;
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  Network net(ft.topo, cfg, queue);
  RecordingPlane rec(net);
  RunnerOptions opts;
  opts.chunks = chunks;
  CollectiveRunner runner(Fabric::of(ft), rec, queue, Rng(7), opts);

  AllReduceRequest req;
  req.id = 1;
  req.members = members;
  req.buffer_bytes = buffer;
  runner.submit_allreduce(scheme, std::move(req));
  queue.run();

  RunResult out;
  out.finished = runner.records().front().finished;
  out.finish_time = runner.records().front().finish_time;
  out.deliveries = std::move(rec.deliveries);
  out.violations = net.telemetry()->conservation_violations();
  out.reduce_sram_peak = net.reduce_sram_peak();
  out.order = members;
  std::sort(out.order.begin(), out.order.end());
  out.buffer = buffer;
  out.chunks = chunks;
  return out;
}

/// Reconstructs, per rank, the bytes of the *reduced result* it ends the run
/// holding, and asserts every piece arrived exactly once. Scheme-specific
/// chunk-id spaces are decoded here; the cross-scheme differential claim is
/// that the returned map is `rank -> buffer` for every scheme.
std::map<NodeId, Bytes> result_bytes(const RunResult& r, Scheme scheme) {
  const std::size_t n = r.order.size();
  const NodeId root = r.order[0];
  std::map<NodeId, Bytes> held;
  std::map<NodeId, std::set<int>> pieces_seen;

  if (scheme == Scheme::Ring) {
    // Gather-phase chunk ids are [n, 2n); rank (s+1)%n combined shard s
    // locally and never receives it.
    const std::vector<Bytes> shards =
        split_chunks(r.buffer, static_cast<int>(n));
    for (std::size_t rk = 0; rk < n; ++rk) {
      const auto own = static_cast<int>((rk + 1) % n);
      held[r.order[rk]] += shards[static_cast<std::size_t>(own)];
      pieces_seen[r.order[rk]].insert(own);
    }
    for (const DeliveryEvent& ev : r.deliveries) {
      if (ev.chunk < static_cast<int>(n)) continue;  // reduce-phase partial
      const int shard = ev.chunk - static_cast<int>(n);
      EXPECT_TRUE(pieces_seen[ev.receiver].insert(shard).second)
          << "rank " << ev.receiver << " received reduced shard " << shard
          << " twice";
      held[ev.receiver] += shards[static_cast<std::size_t>(shard)];
    }
  } else if (scheme == Scheme::InNet) {
    // Fused stream: chunk ids ARE the piece indices, and every member — the
    // initiating rank included — receives every combined piece off the
    // pivot's down multicast.
    const std::vector<Bytes> pieces = split_chunks(r.buffer, r.chunks);
    for (const DeliveryEvent& ev : r.deliveries) {
      EXPECT_LT(ev.chunk, r.chunks);
      EXPECT_TRUE(pieces_seen[ev.receiver].insert(ev.chunk).second)
          << "rank " << ev.receiver << " received piece " << ev.chunk
          << " twice";
      held[ev.receiver] += pieces[static_cast<std::size_t>(ev.chunk)];
    }
  } else {
    // Tree-reduce: broadcast chunk ids are the top `chunks` ids; everything
    // below is reduce-phase traffic into the root (or parents).
    const std::vector<Bytes> pieces = split_chunks(r.buffer, r.chunks);
    int base = 0;
    for (const DeliveryEvent& ev : r.deliveries) {
      if (ev.receiver != root) base = std::max(base, ev.chunk);
    }
    base -= static_cast<int>(pieces.size()) - 1;
    EXPECT_GE(base, 0);
    for (const DeliveryEvent& ev : r.deliveries) {
      if (ev.receiver == root || ev.chunk < base) continue;
      const int piece = ev.chunk - base;
      EXPECT_TRUE(pieces_seen[ev.receiver].insert(piece).second)
          << "rank " << ev.receiver << " received piece " << piece << " twice";
      held[ev.receiver] += pieces[static_cast<std::size_t>(piece)];
    }
    // The root combines contributions locally (host-side for the rank tree,
    // at its combiner for InNet); completion of the reduce phase is what the
    // runner's `expected` and the conservation/ledger audit prove.
    held[root] = r.buffer;
  }
  return held;
}

void expect_differential_identical(const FatTree& ft,
                                   const std::vector<NodeId>& members,
                                   Bytes buffer, int chunks) {
  const RunResult innet =
      run_allreduce(ft, Scheme::InNet, members, buffer, chunks);
  const RunResult ring =
      run_allreduce(ft, Scheme::Ring, members, buffer, chunks);
  const RunResult tree =
      run_allreduce(ft, Scheme::Peel, members, buffer, chunks);

  for (const RunResult* r : {&innet, &ring, &tree}) {
    EXPECT_TRUE(r->finished);
    for (const std::string& v : r->violations) ADD_FAILURE() << v;
  }

  const std::map<NodeId, Bytes> a = result_bytes(innet, Scheme::InNet);
  const std::map<NodeId, Bytes> b = result_bytes(ring, Scheme::Ring);
  const std::map<NodeId, Bytes> c = result_bytes(tree, Scheme::Peel);
  ASSERT_EQ(a.size(), members.size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  for (const auto& [rank, bytes] : a) {
    EXPECT_EQ(bytes, buffer) << "rank " << rank << " holds a partial result";
  }
}

std::vector<NodeId> random_group(const FatTree& ft, Rng& rng, std::size_t n) {
  std::vector<NodeId> pool = ft.gpus;
  rng.shuffle(pool);
  pool.resize(n);
  return pool;
}

TEST(InNetReduce, DifferentialSmallFabric) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});  // 64 GPUs
  Rng rng(101);
  expect_differential_identical(ft, random_group(ft, rng, 8), 4 * kMiB, 4);
  expect_differential_identical(ft, random_group(ft, rng, 16), 1 * kMiB, 4);
}

TEST(InNetReduce, DifferentialUnevenPieces) {
  // Buffer not divisible by the piece count or the group size: split_chunks
  // spreads the remainder, and every scheme must still reconstruct the buffer
  // byte-exactly at every rank.
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  Rng rng(202);
  expect_differential_identical(ft, random_group(ft, rng, 7),
                                3 * kMiB + 12345, 5);
}

TEST(InNetReduce, DifferentialMidFabric) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 2, 4});  // 512 GPUs
  Rng rng(303);
  expect_differential_identical(ft, random_group(ft, rng, 24), 2 * kMiB, 4);
}

// Randomized sweep across fabric degrees, group sizes, and message sizes.
// Heavy (k=16 builds an 8192-GPU fabric); labeled `slow` in CMakeLists.
TEST(InNetReduceSlow, DifferentialRandomizedSweep) {
  for (const int k : {4, 8, 16}) {
    const FatTree ft = build_fat_tree(FatTreeConfig{k, 2, 4});
    Rng rng(static_cast<std::uint64_t>(k) * 977);
    const std::size_t max_group = std::min<std::size_t>(ft.gpus.size(), 32);
    for (int round = 0; round < 3; ++round) {
      const std::size_t n =
          2 + static_cast<std::size_t>(rng.next_below(max_group - 1));
      const Bytes buffer =
          static_cast<Bytes>(64 * kKiB + rng.next_below(2 * kMiB));
      const int chunks = 1 + static_cast<int>(rng.next_below(8));
      expect_differential_identical(ft, random_group(ft, rng, n), buffer,
                                    chunks);
    }
  }
}

TEST(InNetReduce, EveryMemberReceivesEveryPieceExactlyOnce) {
  // The fused stream's delivery contract: every member — the initiating rank
  // included, via the reversed trunk — is credited every combined piece off
  // the pivot's down multicast exactly once, and the combining actually
  // happened in the fabric (the switch SRAM gauge moved).
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  Rng rng(404);
  const std::vector<NodeId> members = random_group(ft, rng, 12);
  const int chunks = 4;
  const RunResult r =
      run_allreduce(ft, Scheme::InNet, members, 2 * kMiB, chunks);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.deliveries.size(), members.size() * static_cast<std::size_t>(chunks));
  std::map<NodeId, std::set<int>> seen;
  for (const DeliveryEvent& ev : r.deliveries) {
    ASSERT_GE(ev.chunk, 0);
    ASSERT_LT(ev.chunk, chunks);
    EXPECT_TRUE(seen[ev.receiver].insert(ev.chunk).second)
        << "rank " << ev.receiver << " received piece " << ev.chunk << " twice";
  }
  ASSERT_EQ(seen.size(), members.size());
  for (NodeId m : r.order) {
    EXPECT_EQ(seen[m].size(), static_cast<std::size_t>(chunks))
        << "rank " << m << " missed a piece";
  }
  EXPECT_GT(r.reduce_sram_peak, 0) << "no in-fabric combining happened";
}

TEST(InNetReduce, RejectsNonReduceCollectives) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  EventQueue queue;
  SimConfig cfg;
  Network net(ft.topo, cfg, queue);
  CollectiveRunner runner(Fabric::of(ft), net, queue, Rng(5), RunnerOptions{});

  BroadcastRequest bc;
  bc.id = 1;
  bc.source = ft.gpus[0];
  bc.destinations = {ft.gpus[1], ft.gpus[2]};
  bc.message_bytes = kMiB;
  EXPECT_THROW(runner.submit(Scheme::InNet, bc), std::invalid_argument);

  AllGatherRequest ag;
  ag.id = 2;
  ag.members = {ft.gpus[0], ft.gpus[1]};
  ag.total_bytes = kMiB;
  EXPECT_THROW(runner.submit_allgather(Scheme::InNet, ag),
               std::invalid_argument);
}

TEST(InNetReduce, CancelUnsentChunksThrowsOnEveryEngine) {
  // One contract on all three engines: a reduce stream's queued
  // contributions cannot migrate, so cancelling them throws rather than
  // returning {} while every injector keeps its chunks. The stream then
  // completes untouched, and a closed stream has nothing left to cancel.
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  Rng rng(606);
  const std::vector<NodeId> members = random_group(ft, rng, 8);
  const NodeId root = members.front();
  const std::vector<NodeId> others(members.begin() + 1, members.end());
  const std::vector<PeelStream> parts =
      peel_static_trees(Fabric::of(ft), build_peel_plan(ft, root, others), 0);
  const StreamSpec spec = innet_fused_spec(ft.topo, parts, root, members);
  const int chunks = 4;

  const auto check = [&](const char* engine, DataPlane& dp,
                         const std::function<void()>& run) {
    SCOPED_TRACE(engine);
    std::size_t delivered = 0;
    dp.set_delivery_handler([&](const DeliveryEvent&) { ++delivered; });
    const StreamId s = dp.open_stream(spec);
    for (int c = 0; c < chunks; ++c) dp.send_chunk(s, c, kMiB);
    EXPECT_THROW((void)dp.cancel_unsent_chunks(s), std::logic_error);
    run();
    EXPECT_EQ(delivered, members.size() * static_cast<std::size_t>(chunks));
    dp.close_stream(s);
    EXPECT_TRUE(dp.cancel_unsent_chunks(s).empty());
  };

  const SimConfig cfg;
  EventQueue solo_queue;
  Network solo(ft.topo, cfg, solo_queue);
  check("solo", solo, [&] { solo_queue.run(); });
  ShardedNetwork sharded(ft.topo, cfg, 2);
  check("sharded", sharded, [&] { sharded.run(); });
  EventQueue flow_queue;
  FlowNetwork flow(ft.topo, cfg, flow_queue);
  check("flow", flow, [&] { flow_queue.run(); });
}

TEST(InNetReduce, Deterministic) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  Rng rng(505);
  const std::vector<NodeId> members = random_group(ft, rng, 10);
  const RunResult a = run_allreduce(ft, Scheme::InNet, members, 2 * kMiB);
  const RunResult b = run_allreduce(ft, Scheme::InNet, members, 2 * kMiB);
  EXPECT_EQ(a.finish_time, b.finish_time);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].receiver, b.deliveries[i].receiver);
    EXPECT_EQ(a.deliveries[i].chunk, b.deliveries[i].chunk);
  }
}

TEST(InNetReduce, BeatsHostSideSchemesOnCct) {
  // The acceptance bar: combining in the fabric removes both Ring's 2(n-1)
  // serialized rotations and the rank tree's host-bounced reduce hops, so
  // InNet must win on completion time against both.
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  Rng rng(606);
  const std::vector<NodeId> members = random_group(ft, rng, 16);
  const Bytes buffer = 8 * kMiB;
  const RunResult innet = run_allreduce(ft, Scheme::InNet, members, buffer);
  const RunResult ring = run_allreduce(ft, Scheme::Ring, members, buffer);
  const RunResult tree = run_allreduce(ft, Scheme::Peel, members, buffer);
  ASSERT_TRUE(innet.finished && ring.finished && tree.finished);
  EXPECT_LT(innet.finish_time, ring.finish_time);
  EXPECT_LT(innet.finish_time, tree.finish_time);
}

}  // namespace
}  // namespace peel
