// Golden signatures for every (collective, scheme) phase shape on every
// engine, clean and under link flapping with automatic recovery. Each case
// hashes the simulated outputs of one run_scenario cell — CCT samples, event
// and segment counts, byte totals, losses, recovered deliveries, plan-cache
// traffic — so any change to stream-open order, send order, chunk ids,
// forwarding rules, RNG draws or recovery grouping shows up as a signature
// mismatch, not as a silent drift in some committed figure.
//
// The constants pin current behavior. A change that moves outputs on
// purpose regenerates them: run the binary with PEEL_GOLDEN_PRINT=1 and
// paste the printed table over kGolden below.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "src/harness/experiment.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

enum class Engine { Solo, Sharded, Flow };

struct Case {
  const char* name;
  CollectiveKind kind;
  Scheme scheme;
  Engine engine = Engine::Solo;
  bool flap = false;     ///< leaf-spine with flapping links + recovery
  int stripes = 1;
  bool fast_controller = false;  ///< 20 us setup: ProgCores migrates mid-run
  bool unicast_recovery = false;  ///< RunnerOptions::recovery_trees off
};

struct Golden {
  const char* name;
  std::uint64_t signature;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const char* s) {
    for (; *s != '\0'; ++s) add(static_cast<std::uint64_t>(*s));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t signature_of(const ScenarioResult& r) {
  Fnv h;
  for (double v : r.cct_seconds.values()) h.add(v);
  h.add(r.sim_seconds);
  h.add(r.events);
  h.add(r.segments);
  h.add(r.segments_lost);
  h.add(static_cast<std::uint64_t>(r.fabric_bytes));
  h.add(static_cast<std::uint64_t>(r.core_bytes));
  h.add(static_cast<std::uint64_t>(r.reduce_sram_peak));
  h.add(static_cast<std::uint64_t>(r.unfinished));
  h.add(r.fault_downs);
  h.add(r.fault_ups);
  h.add(static_cast<std::uint64_t>(r.recovered_deliveries));
  h.add(r.plan_cache.hits);
  h.add(r.plan_cache.misses);
  return h.value();
}

/// Runs one case; `detail` receives a human-readable summary of the run.
std::uint64_t run_case(const Case& c, std::string& detail) {
  static const FatTree ft = [] {
    FatTreeConfig cfg;
    cfg.k = 4;
    cfg.gpus_per_host = 2;
    return build_fat_tree(cfg);
  }();
  static const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});

  ScenarioConfig config;
  config.scheme = c.scheme;
  config.collective = c.kind;
  config.group_size = 12;
  config.message_bytes = 384 * kKiB;
  config.offered_load = 0.3;
  config.collectives = 6;
  config.group_pool = 3;
  config.seed = 4242;
  config.byte_audit = true;
  config.watchdog = true;
  config.runner.stripe_trees = c.stripes;
  if (c.fast_controller) {
    config.runner.controller_mean = 20 * kMicrosecond;
    config.runner.controller_stddev = 5 * kMicrosecond;
  }
  config.runner.recovery_trees = !c.unicast_recovery;
  if (c.engine == Engine::Sharded) config.shards = 2;
  if (c.engine == Engine::Flow) config.fidelity = Fidelity::Flow;
  Fabric fabric = Fabric::of(ft);
  if (c.flap) {
    fabric = Fabric::of(ls);
    config.runner.peel_asymmetric = true;
    config.faults.flap.mtbf_seconds = 60e-6;
    config.faults.flap.mttr_seconds = 25e-6;
    config.faults.flap.links = 12;
    config.faults.flap.horizon_seconds = 400e-6;
  }
  try {
    const ScenarioResult r = run_scenario(fabric, config);
    detail = std::to_string(r.events) + " events, " +
             std::to_string(r.fault_downs) + " downs, " +
             std::to_string(r.recovered_deliveries) + " recovered";
    return signature_of(r);
  } catch (const std::exception& e) {
    detail = std::string("error: ") + e.what();
    Fnv h;
    h.add("error: ");
    h.add(e.what());
    return h.value();
  }
}

using CK = CollectiveKind;
using S = Scheme;

const Case kCases[] = {
    {"bcast_ring", CK::Broadcast, S::Ring},
    {"bcast_tree", CK::Broadcast, S::BinaryTree},
    {"bcast_optimal", CK::Broadcast, S::Optimal},
    {"bcast_optimal_striped", CK::Broadcast, S::Optimal, Engine::Solo, false, 2},
    {"bcast_orca", CK::Broadcast, S::Orca},
    {"bcast_peel", CK::Broadcast, S::Peel},
    {"bcast_peel_striped", CK::Broadcast, S::Peel, Engine::Solo, false, 3},
    {"bcast_progcores", CK::Broadcast, S::PeelProgCores},
    {"bcast_progcores_migrating", CK::Broadcast, S::PeelProgCores, Engine::Solo,
     false, 1, true},
    {"allgather_ring", CK::AllGather, S::Ring},
    {"allgather_optimal", CK::AllGather, S::Optimal},
    {"allgather_orca", CK::AllGather, S::Orca},
    {"allgather_peel", CK::AllGather, S::Peel},
    {"allgather_progcores", CK::AllGather, S::PeelProgCores},
    {"allreduce_ring", CK::AllReduce, S::Ring},
    {"allreduce_tree", CK::AllReduce, S::BinaryTree},
    {"allreduce_optimal", CK::AllReduce, S::Optimal},
    {"allreduce_peel", CK::AllReduce, S::Peel},
    {"allreduce_progcores", CK::AllReduce, S::PeelProgCores},
    {"allreduce_innet", CK::AllReduce, S::InNet},

    {"sharded_bcast_tree", CK::Broadcast, S::BinaryTree, Engine::Sharded},
    {"sharded_bcast_peel", CK::Broadcast, S::Peel, Engine::Sharded},
    {"sharded_allgather_orca", CK::AllGather, S::Orca, Engine::Sharded},
    {"sharded_allreduce_ring", CK::AllReduce, S::Ring, Engine::Sharded},
    {"sharded_allreduce_peel", CK::AllReduce, S::Peel, Engine::Sharded},
    {"sharded_allreduce_innet", CK::AllReduce, S::InNet, Engine::Sharded},

    {"flow_bcast_ring", CK::Broadcast, S::Ring, Engine::Flow},
    {"flow_bcast_progcores_migrating", CK::Broadcast, S::PeelProgCores,
     Engine::Flow, false, 1, true},
    {"flow_allgather_peel", CK::AllGather, S::Peel, Engine::Flow},
    {"flow_allreduce_tree", CK::AllReduce, S::BinaryTree, Engine::Flow},
    {"flow_allreduce_innet", CK::AllReduce, S::InNet, Engine::Flow},

    {"flap_bcast_ring", CK::Broadcast, S::Ring, Engine::Solo, true},
    {"flap_bcast_tree", CK::Broadcast, S::BinaryTree, Engine::Solo, true},
    {"flap_bcast_peel", CK::Broadcast, S::Peel, Engine::Solo, true},
    {"flap_bcast_orca", CK::Broadcast, S::Orca, Engine::Solo, true},
    {"flap_allgather_ring", CK::AllGather, S::Ring, Engine::Solo, true},
    {"flap_allgather_peel", CK::AllGather, S::Peel, Engine::Solo, true},
    {"flap_allreduce_ring", CK::AllReduce, S::Ring, Engine::Solo, true},
    {"flap_allreduce_ring_unicast", CK::AllReduce, S::Ring, Engine::Solo, true,
     1, false, true},
    {"flap_allgather_peel_unicast", CK::AllGather, S::Peel, Engine::Solo, true,
     1, false, true},
    {"flap_allreduce_tree", CK::AllReduce, S::BinaryTree, Engine::Solo, true},
    {"flap_allreduce_peel", CK::AllReduce, S::Peel, Engine::Solo, true},
    {"flap_allreduce_innet", CK::AllReduce, S::InNet, Engine::Solo, true},
    {"flap_sharded_allreduce_innet", CK::AllReduce, S::InNet, Engine::Sharded,
     true},
    {"flap_flow_allgather_ring", CK::AllGather, S::Ring, Engine::Flow, true},
};

const Golden kGolden[] = {
    {"bcast_ring", 0x969b3d436e08acb8ULL},
    {"bcast_tree", 0x80e912af1f5e397dULL},
    {"bcast_optimal", 0x18b53fc1d63d5d68ULL},
    {"bcast_optimal_striped", 0x51610f3c930ac622ULL},
    {"bcast_orca", 0x5697a51a4b1dd196ULL},
    {"bcast_peel", 0x3d180003ced3c5a2ULL},
    {"bcast_peel_striped", 0x2f74f037c8373dc1ULL},
    {"bcast_progcores", 0x3e37386132580a9aULL},
    {"bcast_progcores_migrating", 0xe2ecdd5138eda74aULL},
    {"allgather_ring", 0x6e1e585a19dfe37cULL},
    {"allgather_optimal", 0x5b39294c77f47fc1ULL},
    {"allgather_orca", 0x3cb8d08ad8d2b679ULL},
    {"allgather_peel", 0x73176dd65a58cd8eULL},
    {"allgather_progcores", 0x73176dd65a58cd8eULL},
    {"allreduce_ring", 0xa9cfdea6e946abc4ULL},
    {"allreduce_tree", 0x7a843fa9037d3250ULL},
    {"allreduce_optimal", 0x429c06d8742832daULL},
    {"allreduce_peel", 0x07eb75bc2b7d661eULL},
    {"allreduce_progcores", 0x07eb75bc2b7d661eULL},
    {"allreduce_innet", 0xa7ae24883709a647ULL},
    {"sharded_bcast_tree", 0x1cf9f778e7190565ULL},
    {"sharded_bcast_peel", 0x613893ac7ed3e500ULL},
    {"sharded_allgather_orca", 0x399a7a310497534eULL},
    {"sharded_allreduce_ring", 0xb5125ea9e08b22a0ULL},
    {"sharded_allreduce_peel", 0xdd87c5d1e207ac3eULL},
    {"sharded_allreduce_innet", 0xc7b6a247b84211c8ULL},
    {"flow_bcast_ring", 0xad42df56ed0dee7eULL},
    {"flow_bcast_progcores_migrating", 0xed53267c7cccd5c2ULL},
    {"flow_allgather_peel", 0x8b5d8530027448e3ULL},
    {"flow_allreduce_tree", 0xc064a0d701de4b87ULL},
    {"flow_allreduce_innet", 0xf26dc7e39ae66296ULL},
    {"flap_bcast_ring", 0x4c980d51c870707fULL},
    {"flap_bcast_tree", 0x7526febacea1b07eULL},
    {"flap_bcast_peel", 0x984db78810dfb287ULL},
    {"flap_bcast_orca", 0x985db8f791b783d7ULL},
    {"flap_allgather_ring", 0x34e6b54686f13aaeULL},
    {"flap_allgather_peel", 0xe88666972bca4965ULL},
    {"flap_allreduce_ring", 0x2aec344f0891b4aeULL},
    {"flap_allreduce_ring_unicast", 0x53598fd1e70a2f29ULL},
    {"flap_allgather_peel_unicast", 0xa7fac16e49bcaca8ULL},
    {"flap_allreduce_tree", 0x358e9a72c573f8ccULL},
    {"flap_allreduce_peel", 0xa194cbd79dac511bULL},
    {"flap_allreduce_innet", 0xf1c9724af7728f81ULL},
    {"flap_sharded_allreduce_innet", 0x3e7d6b399b83569cULL},
    {"flap_flow_allgather_ring", 0x15fa924e210e81dfULL},
};

TEST(CollectiveGolden, EverySchemeShapeMatchesItsSignature) {
  const bool print = std::getenv("PEEL_GOLDEN_PRINT") != nullptr;
  for (const Case& c : kCases) {
    std::string detail;
    const std::uint64_t got = run_case(c, detail);
    if (print) {
      std::printf("    {\"%s\", 0x%016llxULL},  // %s\n", c.name,
                  static_cast<unsigned long long>(got), detail.c_str());
      continue;
    }
    const Golden* want = nullptr;
    for (const Golden& g : kGolden) {
      if (std::strcmp(g.name, c.name) == 0) want = &g;
    }
    ASSERT_NE(want, nullptr) << "no golden signature for " << c.name;
    EXPECT_EQ(got, want->signature) << c.name << " (" << detail << ")";
  }
}

}  // namespace
}  // namespace peel
