// Determinism gate: recompute slices of the committed reference CSVs with the
// exact full-mode bench parameters and require every recomputed row to appear
// byte-for-byte in the committed file. A change that moves any pinned row —
// stream-open order, RNG draws, scheduler tie-breaks, float formatting — fails
// here, not silently in a figure nobody regenerated.
//
// One table entry per committed CSV family: the CSV the bench writes and a
// function that recomputes the pinned rows with the bench's full-mode
// config, through run_scenario or run_workload as the bench does. The
// PEEL_BENCH_* environment knobs are deliberately not read: the gate must
// reproduce what the full benches wrote, not what the current shell says.
// The repo root comes in through the PEEL_REPO_ROOT compile definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/harness/workload.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

const FatTree& fat_tree_k8() {
  static const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  return ft;
}

const LeafSpine& leaf_spine_16x48() {
  static const LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 2, 8});
  return ls;
}

/// One recomputed row: its identifying leading columns (with the trailing
/// comma) and the whole row as the bench writes it.
struct PinnedRow {
  std::string key;
  std::string row;
};

struct CsvFamily {
  const char* name;
  const char* csv;  ///< committed reference CSV, relative to the repo root
  /// Recomputes the family's pinned rows with full-mode parameters.
  std::function<std::vector<PinnedRow>()> rows;
};

void PrintTo(const CsvFamily& family, std::ostream* os) { *os << family.name; }

/// A family of run_scenario rows keyed `axis,scheme,`: one row per scheme,
/// `config` giving the full-mode config the bench runs for it and `columns`
/// the row's columns after the key.
CsvFamily scenario_family(
    const char* name, const char* csv, Fabric fabric, std::string axis,
    std::vector<Scheme> schemes, std::function<ScenarioConfig(Scheme)> config,
    std::function<std::string(const ScenarioResult&)> columns) {
  return {name, csv, [=] {
            std::vector<PinnedRow> rows;
            for (Scheme scheme : schemes) {
              const std::string key = axis + "," + to_string(scheme) + ",";
              rows.push_back(
                  {key, key + columns(run_scenario(fabric, config(scheme)))});
            }
            return rows;
          }};
}

std::string cct_columns(const ScenarioResult& r) {
  return cell("%.6f", r.cct_seconds.mean()) + "," +
         cell("%.6f", r.cct_seconds.p99());
}

/// A ScenarioConfig with every field the gate depends on set explicitly, so
/// no environment default (PEEL_BYTE_AUDIT) leaks in.
ScenarioConfig full_mode(Scheme scheme, CollectiveKind collective, int group,
                         Bytes message, int collectives, std::uint64_t seed) {
  ScenarioConfig c;
  c.scheme = scheme;
  c.collective = collective;
  c.group_size = group;
  c.message_bytes = message;
  c.collectives = collectives;
  c.seed = seed;
  c.byte_audit = false;
  return c;
}

std::vector<CsvFamily> families() {
  std::vector<CsvFamily> out;

  // fig5_cct_vs_msgsize, 2 MiB Broadcast rows: 512 GPUs, 24 samples.
  out.push_back(scenario_family("fig5_2MiB", "fig5_cct_vs_msgsize.csv",
                 Fabric::of(fat_tree_k8()), "2",
                 {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                  Scheme::Orca, Scheme::Peel, Scheme::PeelProgCores},
                 [](Scheme s) {
                   ScenarioConfig c = full_mode(s, CollectiveKind::Broadcast,
                                                512, 2 * kMiB, 24, 555);
                   c.sim = bench::scaled_sim(c.message_bytes, 5);
                   return c;
                 },
                 cct_columns));

  // fig7_dynamic_failures, 2 flapping spine-leaf links: 64 GPUs, 8 MiB.
  out.push_back(scenario_family(
      "fig7_2links", "fig7_dynamic_failures.csv",
       Fabric::of(leaf_spine_16x48()), "2",
       {Scheme::BinaryTree, Scheme::Ring, Scheme::Peel},
       [](Scheme s) {
         ScenarioConfig c = full_mode(s, CollectiveKind::Broadcast, 64,
                                      8 * kMiB, 24, 31000 + 2);
         c.sim = bench::scaled_sim(c.message_bytes, 7);
         c.faults.flap.mtbf_seconds = 2e-3;
         c.faults.flap.mttr_seconds = 300e-6;
         c.faults.flap.links = 2;
         c.faults.flap.horizon_seconds = 15e-3;
         c.runner.peel_asymmetric = (s == Scheme::Peel);
         return c;
       },
       [](const ScenarioResult& r) {
         return cct_columns(r) + "," + cell("%zu", r.fault_downs) + "," +
                cell("%zu", r.fault_ups) + "," +
                cell("%zu", r.recovered_deliveries) + "," +
                cell("%zu", r.unfinished);
       }));

  // allreduce_comparison, 1 MiB buffers: 64 GPUs, every scheme incl. InNet.
  out.push_back(scenario_family("allreduce_1MiB", "allreduce_comparison.csv",
                 Fabric::of(fat_tree_k8()), "1",
                 {Scheme::Ring, Scheme::BinaryTree, Scheme::Optimal,
                  Scheme::Peel, Scheme::InNet},
                 [](Scheme s) {
                   ScenarioConfig c = full_mode(s, CollectiveKind::AllReduce,
                                                64, 1 * kMiB, 12, 1414);
                   c.sim = bench::scaled_sim(c.message_bytes, 14);
                   return c;
                 },
                 cct_columns));

  // allgather_comparison, 16 GPUs gathering 64 MiB (4 MiB shards).
  out.push_back(scenario_family("allgather_16gpus", "allgather_comparison.csv",
                 Fabric::of(fat_tree_k8()), "16",
                 {Scheme::Ring, Scheme::Optimal, Scheme::Orca, Scheme::Peel},
                 [](Scheme s) {
                   ScenarioConfig c = full_mode(s, CollectiveKind::AllGather,
                                                16, 64 * kMiB, 12, 1212);
                   c.sim = bench::scaled_sim(c.message_bytes / 16, 12);
                   return c;
                 },
                 cct_columns));

  // tenancy_pressure, IP multicast with 16 group entries per switch: 1000
  // jobs on a k=16 fat tree through run_workload, the solo engine. The
  // update_rate_hz column divides by the drain clock.
  out.push_back({"tenancy_optimal16", "tenancy_pressure.csv", [] {
    static const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
    const Fabric fabric = Fabric::of(ft);
    WorkloadConfig c;
    c.scheme = Scheme::Optimal;
    c.table_capacity = 16;
    c.arrivals.jobs = 1000;
    c.arrivals.message_bytes = 512 * kKiB;
    c.arrivals.group_sizes = {8, 16, 32};
    c.arrivals.iterations = 2;
    c.arrivals.iteration_gap_seconds = 100e-6;
    c.arrivals.hold_seconds = 2e-3;
    c.arrivals.fragmented_share = 0.25;
    c.arrivals.buddy_share = 0.5;
    c.arrivals.rate_per_second = job_rate_for_load(
        fabric, 0.20, c.arrivals.message_bytes, 16, c.arrivals.iterations);
    c.churn.events_per_job = 1;
    c.seed = 20260809;
    c.shards = 0;
    c.byte_audit = false;
    const WorkloadResult r = run_workload(fabric, c);
    // The columns after `scheme,capacity`, formatted as the bench does.
    const std::string key = "Optimal,16,";
    std::string row = key + std::to_string(r.jobs_submitted);
    for (const std::string& col :
         {std::to_string(r.jobs_admitted), std::to_string(r.jobs_fell_back),
          std::to_string(r.jobs_rejected),
          std::to_string(r.admission_failures),
          std::to_string(r.controller_updates),
          std::to_string(r.controller_update_rate_hz),
          std::to_string(r.churn_events),
          std::to_string(r.static_rules_per_switch),
          std::to_string(r.tcam_peak_groups),
          std::to_string(r.tcam_peak_occupancy),
          std::to_string(r.tcam_peak_entries),
          std::to_string(r.cct_seconds.quantile(0.50) * 1e6),
          std::to_string(r.cct_seconds.quantile(0.99) * 1e6),
          std::to_string(r.job_mean_cct_seconds.quantile(0.99) * 1e6)}) {
      row += "," + col;
    }
    return std::vector<PinnedRow>{{key, row}};
  }});
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class CsvGate : public ::testing::TestWithParam<CsvFamily> {};

TEST_P(CsvGate, RecomputedRowsMatchTheCommittedCsv) {
  const CsvFamily& family = GetParam();
  const std::vector<std::string> committed =
      read_lines(std::string(PEEL_REPO_ROOT) + "/" + family.csv);
  for (const PinnedRow& pinned : family.rows()) {
    if (std::find(committed.begin(), committed.end(), pinned.row) !=
        committed.end()) {
      continue;
    }
    std::string same_key;
    for (const std::string& line : committed) {
      if (line.rfind(pinned.key, 0) == 0) same_key += "\n  committed:  " + line;
    }
    ADD_FAILURE() << family.csv << " drifted\n  recomputed: " << pinned.row
                  << same_key;
  }
}

INSTANTIATE_TEST_SUITE_P(CommittedCsvs, CsvGate,
                         ::testing::ValuesIn(families()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace peel
