// scenario_cli: run any scheme/collective/size/load combination from the
// command line — the knob-turning tool for exploring the design space
// without writing code.
//
// Usage:
//   scenario_cli [scheme] [collective] [group_gpus] [message_MiB] [load%] [n]
//                [replicas] [flags...]
//     scheme:      ring | tree | optimal | orca | peel | peelcores | innet
//     collective:  broadcast | allgather | allreduce
//                  (innet is AllReduce-only: switch-combined reduce up the
//                  mirrored prefix tree, PEEL multicast down)
//     replicas:    independent repetitions with derived per-replica seeds,
//                  run in parallel by the sweep engine (PEEL_BENCH_THREADS
//                  overrides the worker count)
//   flags (anywhere on the command line):
//     --trace=FILE          write a Chrome-trace JSON (chrome://tracing /
//                           ui.perfetto.dev) of replica 0's flow lifetimes,
//                           PFC pauses, and CNP events
//     --telemetry-csv=FILE  write replica 0's per-link counters as CSV
//     --samples-csv=FILE    write replica 0's queue-depth time series as CSV
//     --sample-us=N         telemetry sampling interval in µs (default 50
//                           when --samples-csv is given)
//     --audit               byte-conservation audit (same as PEEL_BYTE_AUDIT=1)
//     --watchdog            fail loudly with per-flow diagnostics if any
//                           collective is unfinished at drain/deadline
//     --deadline=S          stop the simulation at S simulated seconds
//     --fault-schedule=FILE replay timed link/switch down/up events from FILE
//                           (`down|up <time_us> link|switch <id>` per line;
//                           see docs/faults.md) with automatic recovery
//     --flap-mtbf=US        random link flapping: mean up-time (µs) before a
//                           failure; requires --flap-mttr
//     --flap-mttr=US        mean down-time (µs) before repair
//     --flap-links=N        how many random links flap (default 1)
//     --flap-horizon=US     no new failures start past this time (default:
//                           the deadline if set, else 50000 µs)
//     --detect-us=US        fault detection delay before each recovery pass
//                           (default 100 µs)
//     --no-recover          inject faults but never run recovery passes
//     --stripes=N           stripe chunks across N near-optimal trees per
//                           collective (Optimal and symmetric PEEL; default 1)
//     --no-plan-cache       disable the control-plane TreePlanCache (A/B)
//     --shards=N            pod-sharded parallel engine with N worker threads
//                           (results are byte-identical for any N >= 1;
//                           0 = classic single-queue engine)
//     --fidelity=MODE       packet (default) = segment-granular simulation;
//                           flow = fluid max-min fast path (orders of
//                           magnitude fewer events, CCT within the stated
//                           per-figure tolerances — docs/simulator.md).
//                           flow runs on one event queue: combining it with
//                           --shards > 0 is an error.
//
//   Workload mode (--workload): the positionals become
//     [scheme] [collective] [group_gpus] [message_MiB] [load%] [jobs]
//   and run the multi-tenant continuous-traffic engine (docs/workload.md):
//   Poisson job arrivals, per-job placement policies, iteration resubmission,
//   membership churn, and MulticastGroupTable admission for group-state
//   schemes. Extra flags:
//     --iters=N             iterations per job (default 2)
//     --gap-us=US           think time between a job's iterations (default
//                           1000 us)
//     --hold-us=US          group-state hold after the last iteration's
//                           submission, open loop (default 0)
//     --rate=J              job arrival rate, jobs/second (default: derived
//                           from load% via job_rate_for_load)
//     --churn=N             membership-change events per job (default 0)
//     --churn-frac=F        fraction of members replaced per event (0.25)
//     --capacity=N          multicast table entries per switch (512; 0 =
//                           unlimited)
//     --frag-share=F        P(job placed fragmented) (default 0)
//     --buddy-share=F       P(job placed buddy-aligned) (default 0)
//     --frag=F              fragmentation level of fragmented jobs (0.25)
//     --closed-loop         chain iterations off completions instead of the
//                           fixed open-loop cadence
//     --no-fallback         drop rejected jobs instead of degrading to Ring
//     --tcam-csv=FILE       write the TCAM occupancy time series as CSV
//   (--audit, --watchdog, --deadline, --shards apply as usual; faults,
//   replicas, and trace/telemetry exports are single-run-mode only.)
//
//   Exit status: 0 = every collective finished; 1 = unknown scheme,
//   collective or flag, or unfinished collectives; 2 = a malformed or
//   out-of-range value (number, --fidelity mode, fault-schedule file) or any
//   other error the run raised, with the message on stderr.
//
//   e.g. scenario_cli peel broadcast 256 64 30 20 4 --audit --trace=run.json
//   e.g. scenario_cli ring broadcast 64 8 30 10 --audit --watchdog
//            --flap-mtbf=2000 --flap-mttr=500 --flap-links=2
//   e.g. scenario_cli optimal broadcast 16 1 30 200 --workload --churn=2
//            --capacity=64 --audit --watchdog
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/harness/bench_env.h"
#include "src/harness/sweep.h"
#include "src/harness/workload.h"
#include "src/sim/trace.h"

using namespace peel;

namespace {

Scheme parse_scheme(const char* s) {
  if (!std::strcmp(s, "ring")) return Scheme::Ring;
  if (!std::strcmp(s, "tree")) return Scheme::BinaryTree;
  if (!std::strcmp(s, "optimal")) return Scheme::Optimal;
  if (!std::strcmp(s, "orca")) return Scheme::Orca;
  if (!std::strcmp(s, "peel")) return Scheme::Peel;
  if (!std::strcmp(s, "peelcores")) return Scheme::PeelProgCores;
  if (!std::strcmp(s, "innet")) return Scheme::InNet;
  std::fprintf(stderr, "unknown scheme '%s'\n", s);
  std::exit(1);
}

CollectiveKind parse_collective(const char* s) {
  if (!std::strcmp(s, "broadcast")) return CollectiveKind::Broadcast;
  if (!std::strcmp(s, "allgather")) return CollectiveKind::AllGather;
  if (!std::strcmp(s, "allreduce")) return CollectiveKind::AllReduce;
  std::fprintf(stderr, "unknown collective '%s'\n", s);
  std::exit(1);
}

struct Flags {
  std::string trace_path;
  std::string telemetry_csv;
  std::string samples_csv;
  std::string fault_schedule;
  long sample_us = 0;
  bool audit = false;
  bool watchdog = false;
  bool no_recover = false;
  double deadline_seconds = 0.0;
  double flap_mtbf_us = 0.0;
  double flap_mttr_us = 0.0;
  double flap_horizon_us = 0.0;
  double detect_us = 100.0;
  int flap_links = 1;
  int stripes = 1;
  bool no_plan_cache = false;
  int shards = 0;
  Fidelity fidelity = Fidelity::Packet;
  // --- workload mode ---
  bool workload = false;
  int iters = 2;
  double gap_us = 1000.0;
  double hold_us = 0.0;
  double rate = 0.0;
  int churn = 0;
  double churn_frac = 0.25;
  long capacity = 512;
  double frag_share = 0.0;
  double buddy_share = 0.0;
  double frag = 0.25;
  bool closed_loop = false;
  bool no_fallback = false;
  std::string tcam_csv;
};

/// A positive whole number of MiB, as bytes (capped so the bytes fit).
Bytes parse_mib(const char* text) {
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max() / kMiB;
  return parse_number<Bytes>(text, "message_MiB", 1, kMax) * kMiB;
}

constexpr long kMaxSampleUs = std::numeric_limits<long>::max() / kMicrosecond;

/// A time value small enough to convert to simulated nanoseconds (SimTime)
/// without overflowing: |µs| <= 1e15, |s| <= 1e9.
double parse_us(const char* text, const char* what) {
  return parse_number<double>(text, what, -1e15, 1e15);
}
double parse_seconds(const char* text, const char* what) {
  return parse_number<double>(text, what, -1e9, 1e9);
}

bool flag_value(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Splits argv into positionals and --flags; exits on an unknown flag.
std::vector<const char*> parse_flags(int argc, char** argv, Flags& flags) {
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional.push_back(arg);
      continue;
    }
    const char* value = nullptr;
    if (flag_value(arg, "--trace", &value)) {
      flags.trace_path = value;
    } else if (flag_value(arg, "--telemetry-csv", &value)) {
      flags.telemetry_csv = value;
    } else if (flag_value(arg, "--samples-csv", &value)) {
      flags.samples_csv = value;
    } else if (flag_value(arg, "--sample-us", &value)) {
      flags.sample_us = parse_number<long>(
          value, "--sample-us", -kMaxSampleUs, kMaxSampleUs);
    } else if (!std::strcmp(arg, "--audit")) {
      flags.audit = true;
    } else if (!std::strcmp(arg, "--watchdog")) {
      flags.watchdog = true;
    } else if (flag_value(arg, "--deadline", &value)) {
      flags.deadline_seconds = parse_seconds(value, "--deadline");
    } else if (flag_value(arg, "--fault-schedule", &value)) {
      flags.fault_schedule = value;
    } else if (flag_value(arg, "--flap-mtbf", &value)) {
      flags.flap_mtbf_us = parse_us(value, "--flap-mtbf");
    } else if (flag_value(arg, "--flap-mttr", &value)) {
      flags.flap_mttr_us = parse_us(value, "--flap-mttr");
    } else if (flag_value(arg, "--flap-links", &value)) {
      flags.flap_links = parse_number<int>(value, "--flap-links");
    } else if (flag_value(arg, "--flap-horizon", &value)) {
      flags.flap_horizon_us = parse_us(value, "--flap-horizon");
    } else if (flag_value(arg, "--detect-us", &value)) {
      flags.detect_us = parse_us(value, "--detect-us");
    } else if (!std::strcmp(arg, "--no-recover")) {
      flags.no_recover = true;
    } else if (flag_value(arg, "--stripes", &value)) {
      flags.stripes = parse_number<int>(value, "--stripes");
    } else if (!std::strcmp(arg, "--no-plan-cache")) {
      flags.no_plan_cache = true;
    } else if (flag_value(arg, "--shards", &value)) {
      flags.shards = parse_number<int>(value, "--shards");
    } else if (flag_value(arg, "--fidelity", &value)) {
      flags.fidelity = parse_fidelity(value);
    } else if (!std::strcmp(arg, "--workload")) {
      flags.workload = true;
    } else if (flag_value(arg, "--iters", &value)) {
      flags.iters = parse_number<int>(value, "--iters");
    } else if (flag_value(arg, "--gap-us", &value)) {
      flags.gap_us = parse_us(value, "--gap-us");
    } else if (flag_value(arg, "--hold-us", &value)) {
      flags.hold_us = parse_us(value, "--hold-us");
    } else if (flag_value(arg, "--rate", &value)) {
      flags.rate = parse_number<double>(value, "--rate");
    } else if (flag_value(arg, "--churn", &value)) {
      flags.churn = parse_number<int>(value, "--churn");
    } else if (flag_value(arg, "--churn-frac", &value)) {
      flags.churn_frac = parse_number<double>(value, "--churn-frac");
    } else if (flag_value(arg, "--capacity", &value)) {
      flags.capacity = parse_number<long>(value, "--capacity");
    } else if (flag_value(arg, "--frag-share", &value)) {
      flags.frag_share = parse_number<double>(value, "--frag-share");
    } else if (flag_value(arg, "--buddy-share", &value)) {
      flags.buddy_share = parse_number<double>(value, "--buddy-share");
    } else if (flag_value(arg, "--frag", &value)) {
      flags.frag = parse_number<double>(value, "--frag");
    } else if (!std::strcmp(arg, "--closed-loop")) {
      flags.closed_loop = true;
    } else if (!std::strcmp(arg, "--no-fallback")) {
      flags.no_fallback = true;
    } else if (flag_value(arg, "--tcam-csv", &value)) {
      flags.tcam_csv = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      std::exit(1);
    }
  }
  return positional;
}

int run_workload_mode(const Flags& flags,
                      const std::vector<const char*>& args) {
  const auto arg = [&args](std::size_t i) -> const char* {
    return i < args.size() ? args[i] : nullptr;
  };
  WorkloadConfig wc;
  wc.scheme = arg(0) ? parse_scheme(arg(0)) : Scheme::Peel;
  wc.collective = arg(1) ? parse_collective(arg(1)) : CollectiveKind::Broadcast;
  const int group = arg(2) ? parse_number<int>(arg(2), "group_gpus", 2) : 16;
  wc.arrivals.group_sizes = {group};
  wc.arrivals.message_bytes = arg(3) ? parse_mib(arg(3)) : kMiB;
  const double load =
      (arg(4) ? parse_number<double>(arg(4), "load%") : 30.0) / 100.0;
  wc.arrivals.jobs = arg(5) ? parse_number<int>(arg(5), "jobs") : 50;
  wc.arrivals.iterations = flags.iters;
  wc.arrivals.iteration_gap_seconds = flags.gap_us * 1e-6;
  wc.arrivals.hold_seconds = flags.hold_us * 1e-6;
  wc.arrivals.fragmented_share = flags.frag_share;
  wc.arrivals.buddy_share = flags.buddy_share;
  wc.arrivals.fragmentation = flags.frag;
  wc.churn.events_per_job = flags.churn;
  wc.churn.replace_fraction = flags.churn_frac;
  wc.table_capacity = static_cast<std::size_t>(flags.capacity);
  wc.ring_fallback = !flags.no_fallback;
  wc.closed_loop = flags.closed_loop;
  wc.seed = 20260705;
  wc.shards = flags.shards;
  wc.fidelity = flags.fidelity;
  if (flags.audit) wc.byte_audit = true;
  wc.watchdog = flags.watchdog;
  wc.deadline_seconds = flags.deadline_seconds;
  if (flags.stripes > 1) wc.runner.stripe_trees = flags.stripes;
  wc.runner.plan_cache = !flags.no_plan_cache;

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  // The effective fragmentation the load model should account for is the
  // mix-weighted level across placement policies.
  wc.arrivals.rate_per_second =
      flags.rate > 0.0
          ? flags.rate
          : job_rate_for_load(fabric, load, wc.arrivals.message_bytes, group,
                              wc.arrivals.iterations,
                              flags.frag_share * flags.frag);

  std::printf(
      "workload %s %s: %d jobs x %d iteration(s), %d GPUs/group, %lld MiB, "
      "%.1f jobs/s, churn %d x %.0f%%, table %zu entries/switch "
      "on a 1024-GPU 8-ary fat-tree (%s loop%s)\n",
      to_string(wc.scheme), to_string(wc.collective), wc.arrivals.jobs,
      wc.arrivals.iterations, group,
      static_cast<long long>(wc.arrivals.message_bytes / kMiB),
      wc.arrivals.rate_per_second, wc.churn.events_per_job,
      wc.churn.replace_fraction * 100, wc.table_capacity,
      wc.closed_loop ? "closed" : "open", flags.shards > 0 ? ", sharded" : "");

  const WorkloadResult r = run_workload(fabric, wc);

  std::printf("\n  jobs        %zu submitted / %zu admitted / %zu fell back "
              "to Ring / %zu rejected\n",
              r.jobs_submitted, r.jobs_admitted, r.jobs_fell_back,
              r.jobs_rejected);
  std::printf("  admission   %zu failure(s); PEEL static rules: %zu/switch\n",
              r.admission_failures, r.static_rules_per_switch);
  std::printf("  controller  %llu update(s), %.1f /s; %llu install(s), "
              "%llu remove(s), %llu churn event(s)\n",
              static_cast<unsigned long long>(r.controller_updates),
              r.controller_update_rate_hz,
              static_cast<unsigned long long>(r.group_installs),
              static_cast<unsigned long long>(r.group_removes),
              static_cast<unsigned long long>(r.churn_events));
  std::printf("  TCAM peak   %zu group(s), %zu entries fabric-wide, "
              "%zu at the fullest switch (%zu series point(s))\n",
              r.tcam_peak_groups, r.tcam_peak_entries, r.tcam_peak_occupancy,
              r.tcam_series.size());
  if (!r.cct_seconds.empty()) {
    std::printf("  mean CCT    %s\n",
                format_seconds(r.cct_seconds.mean()).c_str());
    std::printf("  p50  CCT    %s\n",
                format_seconds(r.cct_seconds.p50()).c_str());
    std::printf("  p99  CCT    %s\n",
                format_seconds(r.cct_seconds.p99()).c_str());
  }
  if (r.job_mean_cct_seconds.count() > 1) {
    const double p50 = r.job_mean_cct_seconds.p50();
    std::printf("  isolation   per-job mean CCT p50 %s, p99 %s (stretch "
                "%.2fx)\n",
                format_seconds(p50).c_str(),
                format_seconds(r.job_mean_cct_seconds.p99()).c_str(),
                p50 > 0.0 ? r.job_mean_cct_seconds.p99() / p50 : 0.0);
  }
  std::printf("  sim         %.3f s simulated, %llu events, %llu unfinished\n",
              r.sim.sim_seconds,
              static_cast<unsigned long long>(r.sim.events),
              static_cast<unsigned long long>(r.sim.unfinished));

  if (!flags.tcam_csv.empty()) {
    std::FILE* f = std::fopen(flags.tcam_csv.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.tcam_csv.c_str());
      return 1;
    }
    std::fprintf(f, "seconds,groups,total_entries,max_occupancy,"
                    "admission_failures\n");
    for (const TcamSample& s : r.tcam_series) {
      std::fprintf(f, "%.9f,%zu,%zu,%zu,%zu\n", s.seconds, s.groups,
                   s.total_entries, s.max_occupancy, s.admission_failures);
    }
    std::fclose(f);
    std::printf("  TCAM CSV    %s\n", flags.tcam_csv.c_str());
  }

  if (r.sim.unfinished) {
    std::printf("  WARNING: %llu collectives did not finish\n",
                static_cast<unsigned long long>(r.sim.unfinished));
    return 1;
  }
  return 0;
}

}  // namespace

int cli_main(int argc, char** argv) {
  Flags flags;
  const std::vector<const char*> args = parse_flags(argc, argv, flags);
  if (flags.workload) return run_workload_mode(flags, args);
  const auto arg = [&args](std::size_t i) -> const char* {
    return i < args.size() ? args[i] : nullptr;
  };

  SweepSpec spec;
  ScenarioConfig& sc = spec.base;
  sc.scheme = arg(0) ? parse_scheme(arg(0)) : Scheme::Peel;
  sc.collective = arg(1) ? parse_collective(arg(1)) : CollectiveKind::Broadcast;
  sc.group_size = arg(2) ? parse_number<int>(arg(2), "group_gpus", 2) : 64;
  sc.message_bytes = arg(3) ? parse_mib(arg(3)) : 8 * kMiB;
  sc.offered_load =
      (arg(4) ? parse_number<double>(arg(4), "load%") : 30.0) / 100.0;
  sc.collectives = arg(5) ? parse_number<int>(arg(5), "n") : 20;
  sc.seed = 20260705;
  spec.replicas = arg(6) ? parse_number<int>(arg(6), "replicas") : 1;
  if (spec.replicas > 1) spec.master_seed = sc.seed;

  const bool wants_telemetry = !flags.trace_path.empty() ||
                               !flags.telemetry_csv.empty() ||
                               !flags.samples_csv.empty();
  if (wants_telemetry) {
    sc.sim.telemetry.enabled = true;
    sc.sim.telemetry.record_trace = !flags.trace_path.empty();
    if (flags.sample_us <= 0 && !flags.samples_csv.empty()) {
      flags.sample_us = 50;  // a useful default when a series was asked for
    }
    sc.sim.telemetry.sample_interval = flags.sample_us * kMicrosecond;
  }
  if (flags.audit) sc.byte_audit = true;
  sc.watchdog = flags.watchdog;
  sc.deadline_seconds = flags.deadline_seconds;

  if (!flags.fault_schedule.empty()) {
    sc.faults.schedule = load_fault_schedule(flags.fault_schedule);
  }
  if (flags.flap_mtbf_us > 0.0 || flags.flap_mttr_us > 0.0) {
    if (flags.flap_mtbf_us <= 0.0 || flags.flap_mttr_us <= 0.0) {
      std::fprintf(stderr,
                   "--flap-mtbf and --flap-mttr must both be positive\n");
      return 1;
    }
    sc.faults.flap.mtbf_seconds = flags.flap_mtbf_us * 1e-6;
    sc.faults.flap.mttr_seconds = flags.flap_mttr_us * 1e-6;
    sc.faults.flap.links = flags.flap_links;
    // Flapping needs an explicit horizon; borrow the deadline when the user
    // gave one, otherwise default to 50 ms of simulated time.
    sc.faults.flap.horizon_seconds =
        flags.flap_horizon_us > 0.0 ? flags.flap_horizon_us * 1e-6
        : flags.deadline_seconds > 0.0 ? flags.deadline_seconds
                                       : 50e-3;
  }
  sc.faults.detection_delay_seconds = flags.detect_us * 1e-6;
  sc.faults.auto_recover = !flags.no_recover;
  if (flags.stripes > 1) sc.runner.stripe_trees = flags.stripes;
  sc.runner.plan_cache = !flags.no_plan_cache;
  sc.shards = flags.shards;
  sc.fidelity = flags.fidelity;

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);

  std::printf("%s %s: %d GPUs, %lld MiB, %.0f%% load, %d collectives x %d "
              "replica(s) on a 1024-GPU 8-ary fat-tree (%d worker thread(s))\n",
              to_string(sc.scheme), to_string(sc.collective), sc.group_size,
              static_cast<long long>(sc.message_bytes / kMiB),
              sc.offered_load * 100, sc.collectives, spec.replicas,
              resolve_sweep_threads(0, spec.cell_count()));

  const SweepResults results = run_sweep(fabric, spec);

  // Merge the replicas: pool CCT samples, sum counters.
  Samples cct;
  {
    std::size_t pooled = 0;
    for (const SweepCell& c : results.cells()) {
      pooled += c.result.cct_seconds.count();
    }
    cct.reserve(pooled);
  }
  Bytes fabric_bytes = 0, core_bytes = 0, sram_peak = 0;
  std::uint64_t ecn = 0, pfc = 0, events = 0;
  std::size_t unfinished = 0;
  std::size_t downs = 0, ups = 0, recovered = 0;
  std::uint64_t delta_applies = 0, delta_repaired = 0, delta_evicted = 0;
  double delta_total_us = 0.0, delta_max_us = 0.0;
  PlanCacheStats plan;
  for (const SweepCell& c : results.cells()) {
    for (double v : c.result.cct_seconds.values()) cct.add(v);
    fabric_bytes += c.result.fabric_bytes;
    core_bytes += c.result.core_bytes;
    ecn += c.result.ecn_marks;
    pfc += c.result.pfc_pauses;
    events += c.result.events;
    sram_peak += c.result.reduce_sram_peak;
    unfinished += c.result.unfinished;
    downs += c.result.fault_downs;
    ups += c.result.fault_ups;
    recovered += c.result.recovered_deliveries;
    plan.hits += c.result.plan_cache.hits;
    plan.misses += c.result.plan_cache.misses;
    plan.insertions += c.result.plan_cache.insertions;
    plan.invalidations += c.result.plan_cache.invalidations;
    delta_applies += c.result.delta_applies;
    delta_total_us += c.result.delta_apply_total_us;
    delta_max_us = std::max(delta_max_us, c.result.delta_apply_max_us);
    delta_repaired += c.result.delta_plans_repaired;
    delta_evicted += c.result.delta_plans_evicted;
  }

  std::printf("\n  mean CCT    %s\n", format_seconds(cct.mean()).c_str());
  std::printf("  p50  CCT    %s\n", format_seconds(cct.p50()).c_str());
  std::printf("  p99  CCT    %s\n", format_seconds(cct.p99()).c_str());
  std::printf("  max  CCT    %s\n", format_seconds(cct.max()).c_str());
  std::printf("  fabric      %s\n",
              format_bytes(static_cast<double>(fabric_bytes)).c_str());
  std::printf("  core links  %s\n",
              format_bytes(static_cast<double>(core_bytes)).c_str());
  std::printf("  ECN marks   %llu, PFC pauses %llu, events %llu\n",
              static_cast<unsigned long long>(ecn),
              static_cast<unsigned long long>(pfc),
              static_cast<unsigned long long>(events));
  if (sram_peak > 0) {
    std::printf("  reduce SRAM %s peak (summed over replicas)\n",
                format_bytes(static_cast<double>(sram_peak)).c_str());
  }
  if (plan.hits + plan.misses > 0) {
    std::printf("  plan cache  %llu hits / %llu misses (%.1f%% hit rate), "
                "%llu delta eviction(s), %llu in-place repair(s)\n",
                static_cast<unsigned long long>(plan.hits),
                static_cast<unsigned long long>(plan.misses),
                plan.hit_rate() * 100.0,
                static_cast<unsigned long long>(plan.invalidations),
                static_cast<unsigned long long>(plan.repairs));
  }
  if (sc.faults.any()) {
    std::printf("  faults      %zu pair-down, %zu pair-up, %zu recovered "
                "deliveries\n",
                downs, ups, recovered);
  }
  if (delta_applies > 0) {
    std::printf("  delta apply %llu delta(s), %.1f us mean / %.1f us max, "
                "%llu plan(s) repaired, %llu evicted\n",
                static_cast<unsigned long long>(delta_applies),
                delta_total_us / static_cast<double>(delta_applies),
                delta_max_us,
                static_cast<unsigned long long>(delta_repaired),
                static_cast<unsigned long long>(delta_evicted));
  }

  if (wants_telemetry || sc.byte_audit) {
    const TelemetryAggregate agg = aggregate_telemetry(results);
    std::printf("  telemetry   %zu cell(s): %s serialized, %llu segments, "
                "PFC paused %s total, deepest queue %s\n",
                agg.cells,
                format_bytes(static_cast<double>(agg.bytes)).c_str(),
                static_cast<unsigned long long>(agg.segments),
                format_seconds(sim_to_seconds(agg.pfc_pause_time)).c_str(),
                format_bytes(static_cast<double>(agg.max_queue_peak)).c_str());
  }

  // Exporters read replica 0 (grid cell 0): one cell's fabric is what a
  // trace viewer can sensibly show.
  if (wants_telemetry) {
    const auto& summary = results.cells().front().result.telemetry;
    if (summary) {
      if (!flags.trace_path.empty()) {
        write_chrome_trace(flags.trace_path, *summary);
        std::printf("  trace       %s\n", flags.trace_path.c_str());
      }
      if (!flags.telemetry_csv.empty()) {
        write_link_telemetry_csv(flags.telemetry_csv, *summary);
        std::printf("  link CSV    %s\n", flags.telemetry_csv.c_str());
      }
      if (!flags.samples_csv.empty()) {
        write_queue_samples_csv(flags.samples_csv, *summary);
        std::printf("  series CSV  %s\n", flags.samples_csv.c_str());
      }
    }
  }

  if (unfinished) {
    std::printf("  WARNING: %zu collectives did not finish\n", unfinished);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main("scenario_cli",
                             [&] { return cli_main(argc, argv); });
}
