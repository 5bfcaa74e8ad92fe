// Host-speed calibration.
//
// The reference host is a shared virtual machine whose CPU speed drifts by
// up to ~50% over tens of seconds as other tenants load it. Timed next to
// every measured repetition, a fixed kernel tracks that drift: it mixes the
// simulator's dominant costs (binary-heap operations like the event queue's
// and dependent loads over a working set larger than L2) and belongs to the
// benchmark, so no change to the simulator moves it.
#pragma once

namespace perfbench {

/// Median wall seconds of three fixed calibration rounds, run now on
/// `threads` threads at once (each round's time is its slowest thread's).
[[nodiscard]] double calibration_seconds(int threads);

/// calibration_seconds(threads) on the quiet reference host (4-vCPU Intel
/// Xeon VM at 2.1 GHz): 0.0235 s on one thread, 0.031 s on more (the
/// threads share memory bandwidth). A host's speed factor is
/// calibration_seconds(threads) / this: 1.0 on the quiet reference host,
/// 1.3 while it runs 30% slower.
[[nodiscard]] constexpr double reference_calibration_seconds(int threads) {
  return threads <= 1 ? 0.0235 : 0.031;
}

}  // namespace perfbench
