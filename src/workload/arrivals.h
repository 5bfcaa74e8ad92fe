// Job-arrival generation for the multi-tenant continuous-traffic engine
// (docs/workload.md; ROADMAP item 3 — the cloud regime Elmo/Bert frame).
//
// A *job* is a training tenant: it arrives (Poisson or trace-driven), draws a
// placement policy, and then resubmits the same collective on its member set
// for a number of iterations, holding multicast group state for its lifetime.
// The arrival stream is generated up front from a dedicated RNG fork, so a
// run's control-plane schedule is a pure function of (options, seed) —
// independent of the data-plane engine that later executes the collectives.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/workload/placement.h"

namespace peel {

/// How a job's members land on the fabric (maps onto PlacementOptions).
enum class PlacementPolicy {
  BinPacked,     ///< contiguous host-aligned window (scheduler bin-packing)
  Fragmented,    ///< window with a fraction displaced to random endpoints
  BuddyAligned,  ///< power-of-two block alignment (whole racks/pods)
};

[[nodiscard]] const char* to_string(PlacementPolicy policy) noexcept;

/// PlacementOptions for one job under `policy`. `fragmentation` applies only
/// to PlacementPolicy::Fragmented (the others place contiguously).
[[nodiscard]] PlacementOptions placement_for(PlacementPolicy policy,
                                             int group_size,
                                             double fragmentation);

/// The job-arrival process plus the per-job collective shape.
struct ArrivalOptions {
  /// Jobs to generate (ignored when `trace_seconds` is set).
  int jobs = 100;
  /// Poisson arrival rate, jobs/second. Must be > 0 unless trace-driven.
  double rate_per_second = 0.0;
  /// Trace-driven arrivals: explicit instants in seconds (need not be
  /// sorted; generate_arrivals sorts). Overrides `jobs`/`rate_per_second`.
  std::vector<double> trace_seconds;

  /// Group sizes drawn uniformly per job (member endpoints incl. source).
  std::vector<int> group_sizes = {8};
  Bytes message_bytes = kMiB;
  /// Collectives per job (training iterations). Each job holds its group
  /// state from arrival until its last iteration.
  int iterations = 4;
  /// Gap between a job's consecutive iteration submissions, seconds (the
  /// compute phase between collectives). In the default open-loop mode the
  /// gap is a fixed think time; in closed-loop mode it is measured from the
  /// previous iteration's completion. In [0, 1e9].
  double iteration_gap_seconds = 1e-3;
  /// Extra time a job's group state stays installed after its last
  /// iteration *submission* in open-loop mode (models the tail of the final
  /// collective plus controller teardown lag). Closed-loop mode removes
  /// state when the final iteration finishes and ignores this. In [0, 1e9].
  double hold_seconds = 0.0;

  /// Placement-policy mix: P(Fragmented), P(BuddyAligned); the remainder is
  /// BinPacked. fragmented_share + buddy_share must be <= 1.
  double fragmented_share = 0.0;
  double buddy_share = 0.0;
  /// Fragmentation level for Fragmented jobs.
  double fragmentation = 0.25;
};

/// One generated job: everything fixed at arrival time except placement
/// (drawn when the arrival fires, so group draws interleave with churn draws
/// deterministically).
struct JobSpec {
  std::uint64_t job = 0;  ///< 1-based
  SimTime arrival = 0;
  PlacementPolicy policy = PlacementPolicy::BinPacked;
  int group_size = 0;
  Bytes message_bytes = 0;
  int iterations = 0;
  SimTime iteration_gap = 0;
  SimTime hold = 0;
};

/// Generates the full arrival schedule. Poisson gaps come from
/// rng.exponential; policy and group-size draws come from the same stream, so
/// the whole schedule is reproducible from one fork. Throws
/// std::invalid_argument on a non-positive rate (without a trace), empty
/// group_sizes, shares outside [0, 1], or an iteration gap or hold time that
/// is negative, NaN or past 1e9 s (naming the field).
[[nodiscard]] std::vector<JobSpec> generate_arrivals(
    const ArrivalOptions& options, Rng& rng);

/// Job arrival rate (jobs/second) that offers `offered_load` of the fabric's
/// access-link capacity, given that each job moves `iterations` messages of
/// `message_bytes` to `group_size` endpoints. Built on arrival_rate_for_load
/// (src/workload/placement.h) with its fragmentation-aware host accounting.
[[nodiscard]] double job_rate_for_load(const Fabric& fabric,
                                       double offered_load,
                                       Bytes message_bytes, int group_size,
                                       int iterations,
                                       double fragmentation = 0.0);

}  // namespace peel
