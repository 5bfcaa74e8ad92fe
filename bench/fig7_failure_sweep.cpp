// Figure 7: PEEL is fast in asymmetric Clos.
//
// Two-tier leaf-spine (16 spines, 48 leaves, 2 servers/leaf, 8 GPUs/server),
// 64-GPU Broadcasts of 8 MB while 1-10% of spine-leaf links are randomly
// failed.  PEEL uses the §2.3 layer-peeling greedy trees; Ring and Tree
// reroute their unicasts around the failures.  The paper reports PEEL's p99
// 3x below Ring and 30x below Tree at 10% failures.
//
// Each failure level damages its own fabric, then runs the three schemes as
// a one-axis parallel sweep over that (now immutable) fabric.
//
// A second phase replays the experiment with *dynamic* failures: the fabric
// starts pristine and spine-leaf links flap mid-run (seeded MTBF/MTTR
// processes from src/faults/), with the runner's automatic recovery
// re-sending whatever the outages ate.  This is the regime the paper's §2.3
// recovery discussion describes but the static sweep cannot show.
#include <cstdio>
#include <iostream>
#include <optional>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"
#include "src/topology/failures.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Figure 7 — robustness to failures", "Fig. 7 (mean & p99)");

  const std::vector<double> failure_pcts =
      bench::quick_mode() ? std::vector<double>{1, 10}
                          : std::vector<double>{1, 2, 4, 8, 10};
  const Bytes message = 8 * kMiB;

  CsvWriter csv("fig7_failure_sweep.csv",
                {"failure_pct", "scheme", "mean_cct_s", "p99_cct_s"});

  // PEEL_BENCH_TELEMETRY=1: per-cell telemetry, rolled up per failure level
  // into a side CSV. The main CSV above is identical either way.
  std::optional<CsvWriter> telemetry_csv;
  if (bench::telemetry_enabled()) {
    telemetry_csv.emplace(
        "fig7_failure_telemetry.csv",
        std::vector<std::string>{"failure_pct", "cells", "bytes", "segments",
                                 "ecn_marks", "pfc_pauses", "pfc_pause_ns",
                                 "max_queue_peak_bytes"});
  }

  for (double pct : failure_pcts) {
    // Fresh fabric per failure level (deterministic failure draw).
    LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 2, 8});
    Rng frng(1000 + static_cast<std::uint64_t>(pct * 10));
    fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), pct / 100.0,
                         frng);
    const Fabric fabric = Fabric::of(ls);

    SweepSpec spec;
    spec.schemes = {Scheme::BinaryTree, Scheme::Ring, Scheme::Peel};
    spec.base.group_size = 64;
    spec.base.message_bytes = message;
    spec.base.collectives = bench::samples_for(message);
    spec.base.sim = bench::scaled_sim(message, 7);
    bench::apply_env_telemetry(spec.base.sim);
    spec.base.seed = 777 + static_cast<std::uint64_t>(pct);
    spec.customize = [](const SweepPoint& p, ScenarioConfig& c) {
      c.runner.peel_asymmetric = (p.scheme == Scheme::Peel);
    };
    const SweepResults results = run_sweep(fabric, spec);

    Table table({"scheme", "mean CCT", "p99 CCT"});
    std::printf("--- %.0f%% spine-leaf links failed ---\n", pct);
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s).result;
      table.add_row({to_string(spec.schemes[s]),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99())});
      csv.row({cell("%.0f", pct), to_string(spec.schemes[s]),
               cell("%.6f", r.cct_seconds.mean()),
               cell("%.6f", r.cct_seconds.p99())});
      if (r.unfinished) {
        std::printf("WARNING: %zu unfinished under %s\n", r.unfinished,
                    to_string(spec.schemes[s]));
      }
    }
    if (telemetry_csv) {
      const TelemetryAggregate agg = aggregate_telemetry(results);
      telemetry_csv->row(
          {cell("%.0f", pct), cell("%zu", agg.cells),
           cell("%lld", static_cast<long long>(agg.bytes)),
           cell("%llu", static_cast<unsigned long long>(agg.segments)),
           cell("%llu", static_cast<unsigned long long>(agg.ecn_marks)),
           cell("%llu", static_cast<unsigned long long>(agg.pfc_pauses)),
           cell("%lld", static_cast<long long>(agg.pfc_pause_time)),
           cell("%lld", static_cast<long long>(agg.max_queue_peak))});
      std::printf("telemetry: %s serialized over %zu cell(s), deepest queue "
                  "%s\n",
                  format_bytes(static_cast<double>(agg.bytes)).c_str(),
                  agg.cells,
                  format_bytes(static_cast<double>(agg.max_queue_peak)).c_str());
    }
    table.print(std::cout);
    std::printf("\n");
  }
  if (telemetry_csv) {
    std::printf("telemetry roll-up -> fig7_failure_telemetry.csv\n");
  }
  std::printf("paper: PEEL beats Ring and Tree at every failure level; the "
              "greedy trees stay near-optimal even at 10%%.\n"
              "CSV -> fig7_failure_sweep.csv\n\n");

  // ---- Phase 2: dynamic failures (links flap and repair mid-collective) ----
  std::printf("--- dynamic failures: flapping spine-leaf links ---\n");
  const std::vector<int> flap_counts =
      bench::quick_mode() ? std::vector<int>{4} : std::vector<int>{2, 4, 8};

  CsvWriter dyn_csv("fig7_dynamic_failures.csv",
                    {"flapping_links", "scheme", "mean_cct_s", "p99_cct_s",
                     "pair_downs", "pair_ups", "recovered_deliveries",
                     "unfinished"});

  for (int links : flap_counts) {
    // Pristine fabric: all damage happens in simulated time via the fault
    // injector, on each cell's private topology copy.
    const LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 2, 8});
    const Fabric fabric = Fabric::of(ls);

    SweepSpec spec;
    spec.schemes = {Scheme::BinaryTree, Scheme::Ring, Scheme::Peel};
    spec.base.group_size = 64;
    spec.base.message_bytes = message;
    spec.base.collectives = bench::samples_for(message);
    spec.base.sim = bench::scaled_sim(message, 7);
    bench::apply_env_telemetry(spec.base.sim);
    spec.base.seed = 31000 + static_cast<std::uint64_t>(links);
    spec.base.faults.flap.mtbf_seconds = 2e-3;   // ~2 ms up between outages
    spec.base.faults.flap.mttr_seconds = 300e-6; // ~300 µs to repair
    spec.base.faults.flap.links = links;
    spec.base.faults.flap.horizon_seconds = 15e-3;
    spec.customize = [](const SweepPoint& p, ScenarioConfig& c) {
      c.runner.peel_asymmetric = (p.scheme == Scheme::Peel);
    };
    const SweepResults results = run_sweep(fabric, spec);

    Table table({"scheme", "mean CCT", "p99 CCT", "downs", "ups", "recovered"});
    std::printf("--- %d flapping spine-leaf links ---\n", links);
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const ScenarioResult& r = results.at(s).result;
      table.add_row({to_string(spec.schemes[s]),
                     format_seconds(r.cct_seconds.mean()),
                     format_seconds(r.cct_seconds.p99()),
                     cell("%zu", r.fault_downs), cell("%zu", r.fault_ups),
                     cell("%zu", r.recovered_deliveries)});
      dyn_csv.row({cell("%d", links), to_string(spec.schemes[s]),
                   cell("%.6f", r.cct_seconds.mean()),
                   cell("%.6f", r.cct_seconds.p99()),
                   cell("%zu", r.fault_downs), cell("%zu", r.fault_ups),
                   cell("%zu", r.recovered_deliveries),
                   cell("%zu", r.unfinished)});
      if (r.unfinished) {
        std::printf("WARNING: %zu unfinished under %s\n", r.unfinished,
                    to_string(spec.schemes[s]));
      }
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("dynamic failures: outages mid-collective cost a detection "
              "delay plus a recovery re-send; PEEL recovers with one peeled "
              "tree per origin while unicast schemes re-send per receiver.\n"
              "CSV -> fig7_dynamic_failures.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("fig7_failure_sweep", run_bench); }
