#include "src/workload/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace peel {
namespace {

/// Longest time span an arrival option may give: 1e9 s still converts to
/// SimTime nanoseconds without overflow.
constexpr double kMaxSeconds = 1e9;

}  // namespace

const char* to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::BinPacked: return "BinPacked";
    case PlacementPolicy::Fragmented: return "Fragmented";
    case PlacementPolicy::BuddyAligned: return "BuddyAligned";
  }
  return "?";
}

PlacementOptions placement_for(PlacementPolicy policy, int group_size,
                               double fragmentation) {
  PlacementOptions p;
  p.group_size = group_size;
  p.host_aligned = true;
  switch (policy) {
    case PlacementPolicy::BinPacked:
      break;
    case PlacementPolicy::Fragmented:
      p.fragmentation = fragmentation;
      break;
    case PlacementPolicy::BuddyAligned:
      p.buddy_aligned = true;
      break;
  }
  return p;
}

std::vector<JobSpec> generate_arrivals(const ArrivalOptions& options,
                                       Rng& rng) {
  if (options.group_sizes.empty()) {
    throw std::invalid_argument("generate_arrivals: empty group_sizes");
  }
  for (const auto& [name, share] :
       {std::pair{"fragmented_share", options.fragmented_share},
        std::pair{"buddy_share", options.buddy_share}}) {
    // NaN fails every comparison, so it would silently bin-pack every job.
    if (!(share >= 0.0 && share <= 1.0)) {
      throw std::invalid_argument(std::string("generate_arrivals: ") + name +
                                  " must be in [0, 1] (got " +
                                  std::to_string(share) + ")");
    }
  }
  if (options.fragmented_share + options.buddy_share > 1.0) {
    throw std::invalid_argument("generate_arrivals: bad policy shares");
  }
  if (options.iterations < 1) {
    throw std::invalid_argument("generate_arrivals: iterations must be >= 1");
  }
  for (const auto& [name, seconds] :
       {std::pair{"iteration_gap_seconds", options.iteration_gap_seconds},
        std::pair{"hold_seconds", options.hold_seconds}}) {
    // A negative time would schedule a job's next step into the past; NaN
    // and infinity have no simulated-time value.
    if (!(seconds >= 0.0 && seconds <= kMaxSeconds)) {
      throw std::invalid_argument(std::string("generate_arrivals: ") + name +
                                  " must be in [0, 1e9] (got " +
                                  std::to_string(seconds) + ")");
    }
  }

  std::vector<SimTime> arrivals;
  if (!options.trace_seconds.empty()) {
    arrivals.reserve(options.trace_seconds.size());
    for (double s : options.trace_seconds) {
      // NaN or a time past 1e9 s has no SimTime value (the cast would place
      // the job at INT64_MIN and sort it first).
      if (!(s >= 0.0 && s <= kMaxSeconds)) {
        throw std::invalid_argument(
            "generate_arrivals: trace_seconds entries must be in [0, 1e9] "
            "(got " + std::to_string(s) + ")");
      }
      arrivals.push_back(seconds_to_sim(s));
    }
    std::sort(arrivals.begin(), arrivals.end());
  } else {
    // The mean gap 1 / rate must be a time in (0, 1e9] s; a NaN or
    // infinite rate has no gap to draw from.
    const double rate = options.rate_per_second;
    if (!(rate >= 1.0 / kMaxSeconds && std::isfinite(rate))) {
      throw std::invalid_argument(
          "generate_arrivals: rate_per_second must be finite and >= 1e-9 "
          "without a trace (got " + std::to_string(rate) + ")");
    }
    if (options.jobs < 1) {
      throw std::invalid_argument("generate_arrivals: jobs must be >= 1");
    }
    const double mean_gap_ns = 1e9 / options.rate_per_second;
    arrivals.reserve(static_cast<std::size_t>(options.jobs));
    SimTime t = 0;
    for (int i = 0; i < options.jobs; ++i) {
      t += static_cast<SimTime>(rng.exponential(mean_gap_ns));
      arrivals.push_back(t);
    }
  }

  std::vector<JobSpec> jobs;
  jobs.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    JobSpec spec;
    spec.job = static_cast<std::uint64_t>(i) + 1;
    spec.arrival = arrivals[i];
    // One uniform draw in [0,1) splits into the three policy shares.
    const double u =
        static_cast<double>(rng.next_below(1u << 30)) / static_cast<double>(1u << 30);
    if (u < options.fragmented_share) {
      spec.policy = PlacementPolicy::Fragmented;
    } else if (u < options.fragmented_share + options.buddy_share) {
      spec.policy = PlacementPolicy::BuddyAligned;
    } else {
      spec.policy = PlacementPolicy::BinPacked;
    }
    spec.group_size = options.group_sizes[static_cast<std::size_t>(
        rng.next_below(options.group_sizes.size()))];
    spec.message_bytes = options.message_bytes;
    spec.iterations = options.iterations;
    spec.iteration_gap = seconds_to_sim(options.iteration_gap_seconds);
    spec.hold = seconds_to_sim(options.hold_seconds);
    jobs.push_back(spec);
  }
  return jobs;
}

double job_rate_for_load(const Fabric& fabric, double offered_load,
                         Bytes message_bytes, int group_size, int iterations,
                         double fragmentation) {
  if (iterations < 1) {
    throw std::invalid_argument("job_rate_for_load: iterations must be >= 1");
  }
  // A job is `iterations` collectives; dividing the collective rate by the
  // per-job count keeps the byte flux at the offered load.
  return arrival_rate_for_load(fabric, offered_load, message_bytes, group_size,
                               fragmentation) /
         static_cast<double>(iterations);
}

}  // namespace peel
