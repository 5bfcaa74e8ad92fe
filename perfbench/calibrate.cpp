#include "perfbench/calibrate.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kTableBits = 20;  // 4 MiB of uint32
constexpr std::size_t kHeapCap = std::size_t{1} << 15;
constexpr int kSteps = 400000;

const std::vector<std::uint32_t>& table() {
  static const std::vector<std::uint32_t> t = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << kTableBits);
    std::uint32_t x = 12345;
    for (std::uint32_t& e : v) {
      x = x * 1664525u + 1013904223u;
      e = x;
    }
    return v;
  }();
  return t;
}

/// One round: a dependent random walk over the table feeding a bounded
/// min-heap. Returns a value derived from every step so none is skipped.
std::uint64_t round_once(std::vector<std::uint64_t>& heap) {
  const std::vector<std::uint32_t>& t = table();
  heap.clear();
  std::uint32_t x = 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x = t[x & ((1u << kTableBits) - 1)] ^ (x * 2654435761u);
    heap.push_back((static_cast<std::uint64_t>(x) << 20) |
                   static_cast<std::uint64_t>(i));
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    if (heap.size() > kHeapCap) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      acc += heap.back();
      heap.pop_back();
    }
  }
  return acc + x;
}

/// Wall seconds of one round on this thread.
double timed_round(std::uint64_t& sum) {
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapCap + 1);
  const auto start = std::chrono::steady_clock::now();
  sum += round_once(heap);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

double calibration_seconds(int threads) {
  table();  // build the shared table before any timing
  std::array<double, 3> rounds{};
  std::uint64_t sum = 0;
  for (double& r : rounds) {
    // Every thread runs one round at once; the slowest sets the time, as
    // the slowest domain sets a parallel window's.
    std::vector<double> seconds(static_cast<std::size_t>(threads), 0.0);
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) {
      const auto i = static_cast<std::size_t>(t);
      pool.emplace_back([&seconds, &sums, i] { seconds[i] = timed_round(sums[i]); });
    }
    seconds[0] = timed_round(sums[0]);
    for (std::thread& th : pool) th.join();
    r = *std::max_element(seconds.begin(), seconds.end());
    for (const std::uint64_t v : sums) sum += v;
  }
  // The walk's result is data-dependent; a zero sum is practically
  // impossible, and testing it keeps the work observable.
  if (sum == 0) return 0.0;
  std::sort(rounds.begin(), rounds.end());
  return rounds[1];
}

}  // namespace perfbench
