// Shared environment knobs and sim-scaling policy for the reproduction
// benches (library version — benches must not carry private copies of
// formatting or env handling; tables come from src/harness/table.h, CSVs
// from src/common/csv.h, grids from src/harness/sweep.h).
//
// Environment variables:
//   PEEL_BENCH_QUICK=1     shrink sweeps/samples for smoke runs
//   PEEL_BENCH_SAMPLES=<n> override the per-cell collective count
//   PEEL_BENCH_THREADS=<n> worker threads for sweep-engine benches
//                          (consumed by resolve_sweep_threads)
//   PEEL_BENCH_TELEMETRY=1 record per-link telemetry + trace events in
//                          instrumented benches (see docs/telemetry.md)
//   PEEL_BYTE_AUDIT=1      byte-conservation audit on every scenario run
//                          (consumed by byte_audit_env_default)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "src/common/parse.h"
#include "src/sim/config.h"

namespace peel::bench {

/// Runs a bench's or example's main body. An exception it lets escape — a
/// malformed PEEL_BENCH_* value or argument, a run that throws — becomes
/// "<name>: <message>" on stderr and exit status 2 instead of an abort.
template <typename Body>
int guarded_main(const char* name, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 2;
  }
}

inline bool quick_mode() {
  const char* v = std::getenv("PEEL_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline bool telemetry_enabled() {
  const char* v = std::getenv("PEEL_BENCH_TELEMETRY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Turns on telemetry counters + trace recording when PEEL_BENCH_TELEMETRY
/// is set. The hooks are passive, so bench results are unchanged either way.
inline void apply_env_telemetry(SimConfig& sim) {
  if (!telemetry_enabled()) return;
  sim.telemetry.enabled = true;
  sim.telemetry.record_trace = true;
}

/// PEEL_BENCH_SAMPLES when set to a positive count (0 keeps the default);
/// throws std::invalid_argument on a malformed value.
inline int samples_override(int full_default, int quick_default) {
  const int n = env_number("PEEL_BENCH_SAMPLES", 0).value_or(0);
  if (n > 0) return n;
  return quick_mode() ? quick_default : full_default;
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n", title);
  std::printf("reproduces: %s%s\n\n", paper_ref,
              quick_mode() ? "   [QUICK MODE]" : "");
}

/// Simulation config with the segment (serialization unit) scaled to the
/// message size so event counts stay tractable at 512 MB while small
/// messages keep full ECN fidelity.  ECN thresholds scale with the segment so
/// marking stays meaningful at coarser granularity.
inline SimConfig scaled_sim(Bytes message_bytes, std::uint64_t seed) {
  SimConfig sim;
  sim.seed = seed;
  Bytes segment = message_bytes / 256;
  if (segment < 64 * kKiB) segment = 64 * kKiB;
  if (segment > 4 * kMiB) segment = 4 * kMiB;
  sim.segment_bytes = segment;
  if (segment > 64 * kKiB) {
    const double scale = static_cast<double>(segment) / (64.0 * kKiB);
    sim.ecn_kmin = static_cast<Bytes>(sim.ecn_kmin * scale);
    sim.ecn_kmax = static_cast<Bytes>(sim.ecn_kmax * scale);
    sim.pfc_hysteresis = static_cast<Bytes>(sim.pfc_hysteresis * scale);
  }
  return sim;
}

/// Collectives to sample for a given message size (smaller messages are
/// cheap, so sample more of them).
inline int samples_for(Bytes message_bytes) {
  const auto mb = static_cast<int>(message_bytes / kMiB);
  const int base = std::max(4, std::min(24, 2048 / std::max(1, mb)));
  return samples_override(base, std::max(2, base / 6));
}

}  // namespace peel::bench
