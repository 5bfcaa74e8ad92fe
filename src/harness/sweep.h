// Parallel sweep engine for scenario experiments.
//
// Every figure in the paper is a grid of independent scenario cells
// (scheme × group size × message size × load × seed replicas), and each cell
// builds its own EventQueue/Network — embarrassingly parallel. A SweepSpec
// describes the grid declaratively; run_sweep fans the cells out over a
// fixed-size thread pool and returns results in grid order, so output is
// byte-identical regardless of thread count or scheduling.
//
// Determinism discipline:
//   - Cell configs (including seeds) are materialized serially, up front,
//     from grid coordinates alone — never from submission or completion
//     order.
//   - With `master_seed` set, each cell's seed is derive_cell_seed(master,
//     coordinates): replicas and neighboring cells get statistically
//     independent streams, reproducible from the spec alone.
//   - Without `master_seed`, every cell keeps base.seed (the discipline of
//     the original serial benches, kept so their CSVs stay byte-identical).
//
// Thread count: a positive PEEL_BENCH_THREADS environment variable overrides
// everything (a malformed one throws); otherwise SweepOptions::threads;
// otherwise the hardware concurrency. Always clamped to [1, cell count].
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/harness/experiment.h"

namespace peel {

/// One cell's grid coordinates plus the axis values they select.
struct SweepPoint {
  std::size_t scheme_index = 0;
  std::size_t group_index = 0;
  std::size_t message_index = 0;
  std::size_t load_index = 0;
  int replica = 0;
  /// Row-major flat index: schemes outermost, then groups, messages, loads,
  /// replicas innermost.
  std::size_t flat_index = 0;

  Scheme scheme = Scheme::Peel;
  int group_size = 0;
  Bytes message_bytes = 0;
  double offered_load = 0.0;
};

/// Declarative grid of scenario cells. Empty axes collapse to the base
/// config's value for that dimension (a 1-wide axis).
struct SweepSpec {
  /// Template for every cell; axis values override its scheme / group_size /
  /// message_bytes / offered_load / seed fields.
  ScenarioConfig base;
  std::vector<Scheme> schemes;       ///< empty -> {base.scheme}
  std::vector<int> group_sizes;      ///< empty -> {base.group_size}
  std::vector<Bytes> message_sizes;  ///< empty -> {base.message_bytes}
  std::vector<double> loads;         ///< empty -> {base.offered_load}
  /// Independent repetitions of every grid point (distinct seeds when
  /// master_seed is set).
  int replicas = 1;
  /// Sweep-level seed: each cell runs with derive_cell_seed(*master_seed,
  /// point). Unset -> every cell keeps base.seed (replicas then repeat the
  /// identical run — only useful for timing).
  std::optional<std::uint64_t> master_seed;
  /// Last-word hook applied to each cell's config after axis values and the
  /// seed are filled in (per-cell sim scaling, sample counts, ...). Must be
  /// a pure function of the point — it runs during serial materialization.
  std::function<void(const SweepPoint&, ScenarioConfig&)> customize;

  [[nodiscard]] std::size_t scheme_count() const noexcept {
    return schemes.empty() ? 1 : schemes.size();
  }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return group_sizes.empty() ? 1 : group_sizes.size();
  }
  [[nodiscard]] std::size_t message_count() const noexcept {
    return message_sizes.empty() ? 1 : message_sizes.size();
  }
  [[nodiscard]] std::size_t load_count() const noexcept {
    return loads.empty() ? 1 : loads.size();
  }
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas < 1 ? 1 : static_cast<std::size_t>(replicas);
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return scheme_count() * group_count() * message_count() * load_count() *
           replica_count();
  }
};

/// Derives a cell seed from the sweep master seed and the cell's grid
/// coordinates (never from submission order). Distinct coordinates yield
/// statistically independent seeds via SplitMix64-style mixing.
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t master_seed,
                                             const SweepPoint& point) noexcept;

/// One completed cell: where it sits in the grid, the exact config it ran
/// with (seed included), and what it measured.
struct SweepCell {
  SweepPoint point;
  ScenarioConfig config;
  ScenarioResult result;
};

/// Results of a sweep, addressable by grid coordinates or flat grid order.
class SweepResults {
 public:
  SweepResults(const SweepSpec& spec, std::vector<SweepCell> cells);

  /// Cells in row-major grid order (schemes outermost, replicas innermost).
  [[nodiscard]] const std::vector<SweepCell>& cells() const noexcept {
    return cells_;
  }
  /// Coordinate access; throws std::out_of_range on a bad index.
  [[nodiscard]] const SweepCell& at(std::size_t scheme_index,
                                    std::size_t group_index = 0,
                                    std::size_t message_index = 0,
                                    std::size_t load_index = 0,
                                    int replica = 0) const;

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

 private:
  std::size_t groups_, messages_, loads_, replicas_;
  std::vector<SweepCell> cells_;
};

struct SweepOptions {
  /// Worker threads; <= 0 means auto (hardware concurrency). The
  /// PEEL_BENCH_THREADS environment variable overrides this when set.
  int threads = 0;
};

/// Resolves the worker-thread count run_sweep will use: PEEL_BENCH_THREADS
/// env override, else `requested`, else hardware concurrency; clamped to
/// [1, cells]. Throws std::invalid_argument on a malformed PEEL_BENCH_THREADS.
[[nodiscard]] int resolve_sweep_threads(int requested, std::size_t cells);

/// Materializes the specs' cell configs in grid order (what run_sweep will
/// execute). Exposed for tests and dry-run inspection.
[[nodiscard]] std::vector<SweepCell> materialize_cells(const SweepSpec& spec);

/// Runs every cell of the grid against `fabric` and returns the results in
/// grid order. The fabric must stay alive and unmodified for the duration;
/// cells run concurrently, so the spec's customize hook must not capture
/// mutable shared state.
[[nodiscard]] SweepResults run_sweep(const Fabric& fabric, const SweepSpec& spec,
                                     const SweepOptions& options = {});

/// Sweep-wide roll-up of per-cell telemetry summaries (cells that ran with
/// telemetry disabled contribute nothing and are not counted).
struct TelemetryAggregate {
  std::size_t cells = 0;  ///< cells that carried a telemetry summary
  Bytes bytes = 0;
  std::uint64_t segments = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pfc_pauses = 0;
  SimTime pfc_pause_time = 0;
  Bytes max_queue_peak = 0;  ///< deepest egress queue across all cells
};

/// Aggregates link counters over every cell that recorded telemetry.
[[nodiscard]] TelemetryAggregate aggregate_telemetry(const SweepResults& results);

}  // namespace peel
