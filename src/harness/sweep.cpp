#include "src/harness/sweep.h"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "src/common/parse.h"

namespace peel {

namespace {

/// SplitMix64 finalizer: bijective avalanche mix, the same construction the
/// Rng uses for seeding, so cell seeds inherit its independence guarantees.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_cell_seed(std::uint64_t master_seed,
                               const SweepPoint& point) noexcept {
  // Fold each coordinate in through a full avalanche step; tag every axis
  // with a distinct constant so (scheme=1, group=0) and (scheme=0, group=1)
  // land in unrelated streams.
  std::uint64_t seed = mix64(master_seed ^ 0x5eedc0de5eedc0deULL);
  seed = mix64(seed ^ (0x01ULL << 56) ^ point.scheme_index);
  seed = mix64(seed ^ (0x02ULL << 56) ^ point.group_index);
  seed = mix64(seed ^ (0x03ULL << 56) ^ point.message_index);
  seed = mix64(seed ^ (0x04ULL << 56) ^ point.load_index);
  seed = mix64(seed ^ (0x05ULL << 56) ^
               static_cast<std::uint64_t>(point.replica));
  return seed;
}

std::vector<SweepCell> materialize_cells(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  cells.reserve(spec.cell_count());

  for (std::size_t s = 0; s < spec.scheme_count(); ++s) {
    for (std::size_t g = 0; g < spec.group_count(); ++g) {
      for (std::size_t m = 0; m < spec.message_count(); ++m) {
        for (std::size_t l = 0; l < spec.load_count(); ++l) {
          for (std::size_t r = 0; r < spec.replica_count(); ++r) {
            SweepCell cell;
            SweepPoint& p = cell.point;
            p.scheme_index = s;
            p.group_index = g;
            p.message_index = m;
            p.load_index = l;
            p.replica = static_cast<int>(r);
            p.flat_index = cells.size();
            p.scheme = spec.schemes.empty() ? spec.base.scheme : spec.schemes[s];
            p.group_size = spec.group_sizes.empty() ? spec.base.group_size
                                                    : spec.group_sizes[g];
            p.message_bytes = spec.message_sizes.empty()
                                  ? spec.base.message_bytes
                                  : spec.message_sizes[m];
            p.offered_load =
                spec.loads.empty() ? spec.base.offered_load : spec.loads[l];

            cell.config = spec.base;
            cell.config.scheme = p.scheme;
            cell.config.group_size = p.group_size;
            cell.config.message_bytes = p.message_bytes;
            cell.config.offered_load = p.offered_load;
            if (spec.master_seed) {
              cell.config.seed = derive_cell_seed(*spec.master_seed, p);
            }
            if (spec.customize) spec.customize(p, cell.config);
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

int resolve_sweep_threads(int requested, std::size_t cells) {
  // 0 (like an unset variable) keeps the requested count.
  const int env = env_number("PEEL_BENCH_THREADS", 0).value_or(0);
  if (env > 0) requested = env;
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (requested < 1) requested = 1;
  if (cells > 0 && static_cast<std::size_t>(requested) > cells) {
    requested = static_cast<int>(cells);
  }
  return requested;
}

SweepResults::SweepResults(const SweepSpec& spec, std::vector<SweepCell> cells)
    : groups_(spec.group_count()),
      messages_(spec.message_count()),
      loads_(spec.load_count()),
      replicas_(spec.replica_count()),
      cells_(std::move(cells)) {}

const SweepCell& SweepResults::at(std::size_t scheme_index,
                                  std::size_t group_index,
                                  std::size_t message_index,
                                  std::size_t load_index, int replica) const {
  if (group_index >= groups_ || message_index >= messages_ ||
      load_index >= loads_ || replica < 0 ||
      static_cast<std::size_t>(replica) >= replicas_) {
    throw std::out_of_range("SweepResults::at: coordinate out of range");
  }
  const std::size_t flat =
      (((scheme_index * groups_ + group_index) * messages_ + message_index) *
           loads_ +
       load_index) *
          replicas_ +
      static_cast<std::size_t>(replica);
  if (flat >= cells_.size()) {
    throw std::out_of_range("SweepResults::at: scheme index out of range");
  }
  return cells_[flat];
}

SweepResults run_sweep(const Fabric& fabric, const SweepSpec& spec,
                       const SweepOptions& options) {
  std::vector<SweepCell> cells = materialize_cells(spec);
  const int threads = resolve_sweep_threads(options.threads, cells.size());

  std::vector<std::exception_ptr> errors(cells.size());
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) return;
      try {
        cells[i].result = run_scenario(fabric, cells[i].config);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Rethrow the first failure in grid order (deterministic regardless of
  // which thread hit it first).
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return SweepResults(spec, std::move(cells));
}

TelemetryAggregate aggregate_telemetry(const SweepResults& results) {
  TelemetryAggregate agg;
  for (const SweepCell& cell : results.cells()) {
    if (!cell.result.telemetry) continue;
    ++agg.cells;
    for (const LinkTelemetry& t : cell.result.telemetry->links) {
      agg.bytes += t.bytes;
      agg.segments += t.segments;
      agg.ecn_marks += t.ecn_marks;
      agg.pfc_pauses += t.pfc_pauses;
      agg.pfc_pause_time += t.pfc_pause_time;
      agg.max_queue_peak = std::max(agg.max_queue_peak, t.queue_peak);
    }
  }
  return agg;
}

}  // namespace peel
