// Multi-tenant group-table pressure (§1 barrier 2, §5; ROADMAP item 3).
//
// state_vs_groups admits static groups until a table fills; this bench runs
// the *continuous-traffic* version of that story: >= 1000 jobs arrive as a
// Poisson process on one shared k=16 fat tree, each holding its multicast
// group for a few training iterations (with one membership churn mid-life)
// before departing. Group-state schemes (classic IP multicast = Optimal,
// Orca's controller relays) walk every arrival and every churned epoch
// through per-switch table admission — jobs that lose degrade to unicast
// Ring — while PEEL forwards every tenant on the same k-1 static prefix
// rules with zero controller transactions.
//
// Outputs:
//   tenancy_pressure.csv    one row per (scheme, capacity) cell
//   tenancy_tcam_series.csv TCAM occupancy over time for the headline cells
//
// PEEL_BENCH_QUICK=1 shrinks the fabric and job count; PEEL_BYTE_AUDIT=1
// arms full byte-conservation auditing inside every workload run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/table.h"
#include "src/harness/workload.h"

using namespace peel;

namespace {

struct Cell {
  Scheme scheme = Scheme::Peel;
  std::size_t capacity = 0;  ///< 0 = unlimited (PEEL ignores it entirely)
  bool headline = false;     ///< emit this cell's TCAM time series
  WorkloadResult result;
};

std::string capacity_label(const Cell& cell) {
  if (cell.scheme == Scheme::Peel) return "static";  // no per-group state
  return cell.capacity == 0 ? "unlimited" : std::to_string(cell.capacity);
}

int run_bench() {
  bench::banner("Multi-tenant tenancy pressure",
                "§1 barrier 2, §5 (TCAM exhaustion under continuous traffic)");

  const bool quick = bench::quick_mode();
  const FatTree ft = build_fat_tree(quick ? FatTreeConfig{8, 4, 8}
                                          : FatTreeConfig{16, 8, 8});
  const Fabric fabric = Fabric::of(ft);

  WorkloadConfig base;
  base.arrivals.jobs = bench::samples_override(1000, 120);
  base.arrivals.message_bytes = 512 * kKiB;
  base.arrivals.group_sizes = {8, 16, 32};
  base.arrivals.iterations = 2;
  base.arrivals.iteration_gap_seconds = 100e-6;
  base.arrivals.hold_seconds = 2e-3;  // group lifetime past its last iteration
  base.arrivals.fragmented_share = 0.25;
  base.arrivals.buddy_share = 0.5;
  base.arrivals.rate_per_second = job_rate_for_load(
      fabric, 0.20, base.arrivals.message_bytes, 16, base.arrivals.iterations);
  base.churn.events_per_job = 1;
  base.seed = 20260809;
  base.shards = 0;  // committed CSV is the solo-engine timing

  // PEEL against IP multicast at three table sizes (the capacity axis the
  // motivation tables use, scaled to this fabric) plus Orca's relay state.
  std::vector<Cell> cells;
  cells.push_back({Scheme::Peel, 0, true, {}});
  for (const std::size_t capacity : {16u, 64u, 256u}) {
    cells.push_back({Scheme::Optimal, capacity, capacity == 16, {}});
  }
  cells.push_back({Scheme::Orca, 256, false, {}});

  const int threads = resolve_sweep_threads(0, cells.size());
  std::printf("fabric: k=%d fat tree, %zu GPUs; %d jobs, %d worker "
              "thread(s)\n\n",
              ft.config.k, ft.gpus.size(), base.arrivals.jobs, threads);

  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(cells.size());
  std::atomic<std::size_t> cursor{0};
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= cells.size()) return;
        try {
          WorkloadConfig config = base;
          config.scheme = cells[i].scheme;
          config.table_capacity = cells[i].capacity;
          cells[i].result = run_workload(fabric, config);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  Table table({"scheme", "capacity", "admitted", "fell back",
               "admission failures", "peak groups", "hottest switch",
               "ctrl updates", "update rate", "p99 CCT"});
  CsvWriter csv("tenancy_pressure.csv",
                {"scheme", "capacity", "jobs", "admitted", "fell_back",
                 "rejected", "admission_failures", "controller_updates",
                 "update_rate_hz", "churn_events", "static_rules_per_switch",
                 "tcam_peak_groups", "tcam_peak_occupancy",
                 "tcam_peak_entries", "cct_p50_us", "cct_p99_us",
                 "job_mean_cct_p99_us"});
  CsvWriter series("tenancy_tcam_series.csv",
                   {"scheme", "capacity", "seconds", "groups", "total_entries",
                    "max_occupancy", "admission_failures"});

  for (const Cell& c : cells) {
    const WorkloadResult& r = c.result;
    const char* scheme = to_string(c.scheme);
    table.add_row(
        {scheme, capacity_label(c),
         cell("%zu / %zu", r.jobs_admitted, r.jobs_submitted),
         cell("%zu", r.jobs_fell_back), cell("%zu", r.admission_failures),
         cell("%zu", r.tcam_peak_groups), cell("%zu", r.tcam_peak_occupancy),
         cell("%llu", static_cast<unsigned long long>(r.controller_updates)),
         cell("%.0f /s", r.controller_update_rate_hz),
         cell("%.1f us", r.cct_seconds.quantile(0.99) * 1e6)});
    csv.row({scheme, std::to_string(c.capacity),
             std::to_string(r.jobs_submitted), std::to_string(r.jobs_admitted),
             std::to_string(r.jobs_fell_back), std::to_string(r.jobs_rejected),
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
             std::to_string(r.job_mean_cct_seconds.quantile(0.99) * 1e6)});
    if (c.headline) {
      // Downsample long series so the committed CSV stays reviewable.
      const std::size_t stride =
          std::max<std::size_t>(1, r.tcam_series.size() / 1000);
      for (std::size_t i = 0; i < r.tcam_series.size(); i += stride) {
        const TcamSample& s = r.tcam_series[i];
        series.row({scheme, std::to_string(c.capacity),
                    std::to_string(s.seconds), std::to_string(s.groups),
                    std::to_string(s.total_entries),
                    std::to_string(s.max_occupancy),
                    std::to_string(s.admission_failures)});
      }
    }
  }
  table.print(std::cout);

  std::printf(
      "\nEvery tenant PEEL serves rides the same %zu static rules per "
      "aggregation switch (k-1); IP multicast loses jobs to table admission "
      "as soon as concurrent groups crowd the hottest switch, and churn "
      "makes each surviving job pay the controller again.\n"
      "CSV -> tenancy_pressure.csv, tenancy_tcam_series.csv\n",
      cells.front().result.static_rules_per_switch);
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("tenancy_pressure", run_bench); }
