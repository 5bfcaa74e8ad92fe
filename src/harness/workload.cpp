#include "src/harness/workload.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/baselines/group_table.h"
#include "src/collectives/trees.h"
#include "src/harness/engine.h"
#include "src/prefix/prefix.h"
#include "src/steiner/symmetric.h"

namespace peel {

namespace {

using detail::Engine;
using detail::make_engine;
using detail::run_and_harvest;
using detail::submit_collective;

/// Collective ids are (job << 20) | iteration+1 — unique as long as a job
/// runs fewer than 2^20 iterations, and trivially attributable both ways.
constexpr int kIterationBits = 20;

[[nodiscard]] bool scheme_keeps_group_state(Scheme s) noexcept {
  // Optimal is classic in-network IP multicast (one entry per group per
  // switch); Orca's controller installs per-rack relay state per group.
  // PEEL (and its variants) forward on k-1 static prefix rules; Ring and
  // BinaryTree are host-side unicast; InNet combines in per-stream SRAM,
  // not per-group TCAM.
  return s == Scheme::Optimal || s == Scheme::Orca;
}

void validate(const WorkloadConfig& config) {
  if (config.collective == CollectiveKind::Broadcast &&
      config.scheme == Scheme::InNet) {
    throw std::invalid_argument("workload: broadcast does not support InNet");
  }
  if (config.collective == CollectiveKind::AllGather &&
      (config.scheme == Scheme::BinaryTree || config.scheme == Scheme::InNet)) {
    throw std::invalid_argument(
        "workload: AllGather supports Ring/Optimal/Orca/Peel/PeelProgCores");
  }
  if (config.collective == CollectiveKind::AllReduce &&
      config.scheme == Scheme::Orca) {
    throw std::invalid_argument("workload: AllReduce does not support Orca");
  }
}

/// PEEL's per-switch static rule budget on this fabric: 2^(m+1)-1 rules over
/// the m-bit identifier space that covers one pod's ToRs (= k-1 on a k-ary
/// fat-tree) or the leaf tier on a leaf-spine.
[[nodiscard]] std::size_t static_rules(const Fabric& fabric) {
  const int blocks = fabric.fat_tree
                         ? fabric.fat_tree->tors_per_pod()
                         : static_cast<int>(fabric.leaf_spine->leaves.size());
  return rule_count(id_bits(blocks));
}

/// Per-job runtime state, indexed by job-1.
struct JobRt {
  NodeId source = kInvalidNode;
  std::vector<NodeId> dests;
  Scheme scheme = Scheme::Peel;  ///< current data-plane scheme
  bool arrived = false;
  bool installed = false;  ///< holds group-table entries right now
  bool cancelled = false;  ///< dropped (no fallback) — nothing more runs
  bool departed = false;
  int submitted = 0;
  int churned = 0;
};

}  // namespace

WorkloadResult run_workload(const Fabric& fabric,
                            const WorkloadConfig& config) {
  validate(config);
  // The arrival schedule is generated before the engine exists — it is a
  // pure function of (arrivals, seed) and identical whichever engine runs it.
  Rng rng(config.seed);
  Rng arrivals_rng = rng.fork(0xa41);
  const std::vector<JobSpec> specs =
      generate_arrivals(config.arrivals, arrivals_rng);

  const std::unique_ptr<Engine> engine =
      make_engine(fabric.topo(), config.sim, config.fidelity, config.shards,
                  config.byte_audit);
  EventQueue& queue = engine->control();
  CollectiveRunner runner(fabric, engine->data(), queue, rng.fork(0xc0'11ec),
                          config.runner);
  Rng placer = rng.fork(0x97ace);
  Rng churner = rng.fork(0xc4112);
  Rng setup_rng = rng.fork(0x5e7);

  const bool group_state = scheme_keeps_group_state(config.scheme);
  MulticastGroupTable table(
      fabric.topo(), config.table_capacity == 0
                         ? std::numeric_limits<std::size_t>::max()
                         : config.table_capacity);

  WorkloadResult result;
  result.jobs.resize(specs.size());
  result.jobs_submitted = specs.size();
  result.static_rules_per_switch = static_rules(fabric);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobOutcome& out = result.jobs[i];
    out.job = specs[i].job;
    out.policy = specs[i].policy;
    out.scheme = config.scheme;
    out.group_size = specs[i].group_size;
    out.arrival_seconds = sim_to_seconds(specs[i].arrival);
  }
  std::vector<JobRt> rt(specs.size());
  // ~2 lifecycle samples per job plus one per churn re-install.
  result.tcam_series.reserve(
      specs.size() * (2 + static_cast<std::size_t>(std::max(
                              0, config.churn.events_per_job))) +
      1);

  const auto sample_tcam = [&] {
    TcamSample s;
    s.seconds = sim_to_seconds(queue.now());
    s.groups = table.groups_installed();
    s.total_entries = table.total_entries();
    s.max_occupancy = table.max_occupancy();
    s.admission_failures = result.admission_failures;
    result.tcam_peak_groups = std::max(result.tcam_peak_groups, s.groups);
    result.tcam_peak_entries =
        std::max(result.tcam_peak_entries, s.total_entries);
    result.tcam_peak_occupancy =
        std::max(result.tcam_peak_occupancy, s.max_occupancy);
    result.tcam_series.push_back(s);
  };

  // Churn is spread evenly over a job's iterations: with E events and I
  // iterations, one membership change lands before iterations stride,
  // 2*stride, ... (stride = ceil(I / (E+1))), capped at E events.
  const auto churn_due = [&](const JobSpec& spec, int iter) {
    if (!config.churn.enabled() || iter == 0) return false;
    const int stride = std::max(
        1, (spec.iterations + config.churn.events_per_job) /
               (config.churn.events_per_job + 1));
    return iter % stride == 0;
  };

  /// One truncated-normal controller install latency (fig4's N(10ms, 5ms)),
  /// honoring the runner's controller toggle.
  const auto draw_setup = [&]() -> SimTime {
    if (!config.runner.controller_delay_enabled) return 0;
    return static_cast<SimTime>(setup_rng.normal_truncated(
        static_cast<double>(config.runner.controller_mean),
        static_cast<double>(config.runner.controller_stddev), 0.0));
  };

  const auto install_group = [&](std::size_t idx) -> bool {
    const JobSpec& spec = specs[idx];
    JobRt& job = rt[idx];
    // The optimal tree over the failure-free fabric is the footprint the
    // group's switch entries occupy. The job id seeds the core/agg selector
    // so concurrent groups spread across the redundant tier, as an
    // ECMP-hashing controller would.
    const MulticastTree tree =
        optimal_tree(fabric, job.source, job.dests, spec.job);
    if (!table.install(spec.job, tree)) {
      ++result.admission_failures;
      return false;
    }
    ++result.group_installs;
    ++result.controller_updates;
    job.installed = true;
    return true;
  };

  const auto remove_group = [&](std::size_t idx) {
    if (!rt[idx].installed) return;
    table.remove(specs[idx].job);
    rt[idx].installed = false;
    ++result.group_removes;
    ++result.controller_updates;
  };

  const auto depart = [&](std::size_t idx) {
    JobRt& job = rt[idx];
    if (job.departed) return;
    job.departed = true;
    remove_group(idx);
    sample_tcam();  // stateless schemes timestamp a flat (all-zero) series
  };

  /// Walks the job's current tree through admission. Returns the controller
  /// latency an admitted Optimal job pays before its next submission; a
  /// rejected job degrades to Ring or is cancelled, per config. Orca's
  /// controller latency is charged per collective inside the runner (fig4);
  /// charging it here too would double-count. Optimal models classic IP
  /// multicast, whose join walks the controller once per membership epoch.
  const auto admit = [&](std::size_t idx) -> SimTime {
    JobRt& job = rt[idx];
    if (install_group(idx)) {
      return job.scheme == Scheme::Optimal ? draw_setup() : 0;
    }
    JobOutcome& out = result.jobs[idx];
    out.admitted = false;
    if (config.ring_fallback) {
      job.scheme = Scheme::Ring;
      out.scheme = Scheme::Ring;
      out.fell_back = true;
    } else {
      job.cancelled = true;
      out.rejected = job.submitted == 0;
    }
    return 0;
  };

  // One iteration: churn if due (re-walking the controller for group-state
  // schemes), then submit — deferred by the controller's install latency
  // when one was just paid. The final iteration schedules the job's
  // departure (open loop: `hold` after its submission; closed loop departs
  // from the finish handler instead).
  std::function<void(std::size_t, int)> run_iteration;
  run_iteration = [&](std::size_t idx, int iter) {
    const JobSpec& spec = specs[idx];
    JobRt& job = rt[idx];
    if (job.cancelled || job.departed) return;
    SimTime delay = 0;
    if (churn_due(spec, iter) &&
        job.churned < config.churn.events_per_job) {
      const int replaced = churn_group(fabric, job.dests, job.source,
                                       config.churn.replace_fraction, churner);
      if (replaced > 0) {
        ++job.churned;
        ++result.churn_events;
        ++result.jobs[idx].churn_events;
        if (group_state && job.installed) {
          // Membership changed: the controller tears down the old entries
          // and walks the new tree through admission again.
          remove_group(idx);
          delay += admit(idx);
          sample_tcam();
          if (job.cancelled) return;
        }
      }
    }
    const bool last = iter + 1 >= spec.iterations;
    const auto fire = [&, idx, iter, last] {
      const JobSpec& spec = specs[idx];
      JobRt& job = rt[idx];
      if (job.cancelled || job.departed) return;
      const std::uint64_t id =
          (spec.job << kIterationBits) | static_cast<std::uint64_t>(iter + 1);
      submit_collective(runner, config.collective, job.scheme, id, spec.job,
                        job.source, job.dests, spec.message_bytes);
      ++job.submitted;
      if (last && !config.closed_loop) {
        queue.after(spec.hold, [&, idx] { depart(idx); });
      }
    };
    if (delay > 0) {
      queue.after(delay, fire);
    } else {
      fire();
    }
  };

  // Closed loop: chain iteration i+1 (after the think-time gap) off
  // iteration i's completion; depart when the last one finishes.
  if (config.closed_loop) {
    runner.set_finish_handler([&](const CollectiveRecord& rec) {
      if (rec.job == 0) return;
      const std::size_t idx = static_cast<std::size_t>(rec.job) - 1;
      const int iter =
          static_cast<int>(rec.id & ((1u << kIterationBits) - 1)) - 1;
      if (iter + 1 < specs[idx].iterations) {
        queue.after(specs[idx].iteration_gap,
                    [&, idx, iter] { run_iteration(idx, iter + 1); });
      } else {
        depart(idx);
      }
    });
  }

  // Arrivals: placement is drawn when the arrival fires (all control-plane
  // draws happen in queue order — the determinism contract in the header).
  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    queue.at(specs[idx].arrival, [&, idx] {
      const JobSpec& spec = specs[idx];
      JobRt& job = rt[idx];
      job.arrived = true;
      job.scheme = config.scheme;
      const PlacementOptions placement = placement_for(
          spec.policy, spec.group_size, config.arrivals.fragmentation);
      GroupSelection sel = select_local_group(fabric, placement, placer);
      job.source = sel.source;
      job.dests = std::move(sel.destinations);
      JobOutcome& out = result.jobs[idx];
      out.admitted = true;
      const SimTime setup = group_state ? admit(idx) : 0;
      sample_tcam();  // lifecycle sample even for stateless schemes
      if (job.cancelled) return;
      if (config.closed_loop) {
        if (setup > 0) {
          queue.after(setup, [&, idx] { run_iteration(idx, 0); });
        } else {
          run_iteration(idx, 0);
        }
      } else {
        // Open loop: every iteration at a fixed instant — arrival + setup +
        // i*gap — so the whole control-plane schedule is engine-independent.
        for (int i = 0; i < spec.iterations; ++i) {
          queue.after(setup + static_cast<SimTime>(i) * spec.iteration_gap,
                      [&, idx, i] { run_iteration(idx, i); });
        }
      }
    });
  }

  // --- harvest -----------------------------------------------------------
  result.sim = run_and_harvest(
      *engine, runner, fabric.topo(),
      {.deadline_seconds = config.deadline_seconds,
       .watchdog = config.watchdog,
       .byte_audit = config.byte_audit,
       .drain_context = "workload drain",
       .partial_context = "partial workload, over-delivery only"});
  result.cct_seconds = result.sim.cct_seconds;
  // Per-job CCT: mean_cct_seconds holds the sum until the division below.
  for (const CollectiveRecord& record : runner.records()) {
    if (!record.finished) continue;
    JobOutcome& out = result.jobs[static_cast<std::size_t>(record.job) - 1];
    out.mean_cct_seconds += record.cct_seconds();
    ++out.iterations_finished;
  }
  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    JobOutcome& out = result.jobs[idx];
    if (out.iterations_finished > 0) {
      out.mean_cct_seconds /= static_cast<double>(out.iterations_finished);
      result.job_mean_cct_seconds.add(out.mean_cct_seconds);
    }
    if (out.fell_back) ++result.jobs_fell_back;
    if (out.rejected) ++result.jobs_rejected;
    if (out.admitted && !out.fell_back && !rt[idx].cancelled &&
        rt[idx].arrived) {
      ++result.jobs_admitted;
    }
  }

  const double seconds = result.sim.sim_seconds;
  result.controller_update_rate_hz =
      seconds > 0.0 ? static_cast<double>(result.controller_updates) / seconds
                    : 0.0;
  return result;
}

}  // namespace peel
