// peel_perfbench: one benchmark process for one workload and one mode.
//
//   peel_perfbench timed --workload W --seed N --seconds S [--scale toy]
//       repetitions on fresh inputs for S seconds, untraced, through
//       run_scenario / run_workload: set-up time, throughput, CPU, peak
//       RSS (times divided by the calibrated host speed factor).
//   peel_perfbench audit --workload W --seed N [--scale toy]
//       one audited pass per scenario (byte audit, reduction ledger,
//       watchdog) plus one untraced pass of the assembled driver.
//   peel_perfbench trace --workload W --seed N --seconds S [--scale toy]
//                        [--spans FILE]
//       alternating untraced and traced passes for S seconds: the per-layer
//       breakdown, trace overhead and coverage; spans written to FILE.
//
// Each mode prints '#'-prefixed human-readable lines and ends with one JSON
// object on the last line, which perfbench/run.py combines. A value that the
// workload's engine does not model is printed as JSON null.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/calibrate.h"
#include "perfbench/spans.h"
#include "perfbench/traced.h"
#include "perfbench/workloads.h"

using namespace peel;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Hands freed heap pages back to the kernel and resets its peak-RSS mark
/// (VmHWM) to the current RSS, so that the next peak_rss_since_reset_mib()
/// is one repetition's own peak rather than an earlier repetition's.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in MiB: the peak RSS since the last reset_peak_rss(), or since the
/// process started where the kernel does not allow the reset.
double peak_rss_since_reset_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return peak_rss_mib();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Flat JSON object writer; std::nullopt values print as null (absent).
class JsonOut {
 public:
  void num(const std::string& key, std::optional<double> value) {
    char buf[64] = "null";
    if (value && std::isfinite(*value)) std::snprintf(buf, sizeof(buf), "%.10g", *value);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') {
        quoted += '\\';
        quoted += ch;
      } else if (ch == '\n') {
        quoted += "\\n";
      } else if (static_cast<unsigned char>(ch) >= 0x20) {
        quoted += ch;
      }
    }
    add(key, quoted + "\"");
  }
  void boolean(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  Scale scale = Scale::Full;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "peel_perfbench: %s\nusage: peel_perfbench timed|audit|trace "
               "--workload NAME --seed N [--seconds S] [--scale full|toy] "
               "[--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  if (a.mode != "timed" && a.mode != "audit" && a.mode != "trace") {
    usage("unknown mode '" + a.mode + "'");
  }
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (used != value.size() || !(a.seconds > 0.0) || a.seconds > 600.0) {
          throw std::invalid_argument(value);
        }
      } else if (flag == "--scale") {
        if (value != "full" && value != "toy") throw std::invalid_argument(value);
        a.scale = value == "toy" ? Scale::Toy : Scale::Full;
      } else if (flag == "--spans") {
        a.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty()) usage("missing --workload");
  if (!have_seed) usage("missing --seed");
  return a;
}

/// The fabric plus the workload of one repetition built on it.
struct Setup {
  Setup(const Args& a, int repetition)
      : built(topology_for(a.workload)),
        fabric(built.view()),
        workload(make_workload(a.workload, repetition_seed(a.seed, repetition),
                               a.scale, fabric)) {}

  BuiltFabric built;
  Fabric fabric;
  Workload workload;
};

/// Collectives one repetition attempts.
std::size_t collectives_of(const Workload& w) {
  std::size_t n = 0;
  for (const ScenarioPass& p : w.passes) n += static_cast<std::size_t>(p.config.collectives);
  if (w.tenancy) {
    n += static_cast<std::size_t>(w.tenancy->arrivals.jobs) *
         static_cast<std::size_t>(w.tenancy->arrivals.iterations);
  }
  return n;
}

/// Generates every input of the workload (placements, arrival schedule,
/// flap schedule) the way the public drivers will.
std::size_t generate_all_inputs(const Setup& s) {
  std::size_t items = 0;
  for (const ScenarioPass& p : s.workload.passes) {
    const ScenarioInputs in = scenario_inputs(p.config, s.fabric, nullptr);
    items += in.groups.size() + in.faults.events.size();
  }
  if (s.workload.tenancy) {
    const TenancyInputs in = tenancy_inputs(*s.workload.tenancy, s.fabric, nullptr);
    items += in.jobs.size() + in.placements.size();
  }
  return items;
}

/// One untraced pass of every scenario (or the tenancy run) through the
/// public drivers.
std::vector<PassOutcome> run_all_public(const Setup& s, bool audit) {
  std::vector<PassOutcome> out;
  for (const ScenarioPass& p : s.workload.passes) {
    out.push_back(run_public(s.fabric, p, audit));
  }
  if (s.workload.tenancy) out.push_back(run_public(s.fabric, *s.workload.tenancy, audit));
  return out;
}

std::string signature_of(const std::vector<PassOutcome>& passes) {
  std::string sig;
  for (const PassOutcome& o : passes) {
    if (!sig.empty()) sig += " | ";
    sig += o.signature();
  }
  return sig;
}

void echo_config(const Args& a, const Setup& s) {
  std::printf("# build_type %s  nproc %u  seed %" PRIu64 "  workload %s  scale %s\n",
              PEEL_PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              a.seed, a.workload.c_str(), a.scale == Scale::Toy ? "toy" : "full");
  std::printf("# topology %s\n", describe(s.workload.topology, s.fabric).c_str());
  for (const ScenarioPass& p : s.workload.passes) {
    const ScenarioConfig& c = p.config;
    std::printf(
        "# pass %s: %s %s, %d collectives, group %d, %.0f KiB, load %.3g, "
        "pool %d, engine %s",
        p.label.c_str(), to_string(c.scheme), to_string(c.collective),
        c.collectives, c.group_size, static_cast<double>(c.message_bytes) / 1024.0,
        c.offered_load, c.group_pool,
        c.shards > 0 ? "sharded" : "solo");
    if (c.shards > 0) std::printf(" (%d workers)", c.shards);
    if (c.faults.flap.enabled()) {
      std::printf(", flap %d links mtbf %.3g s mttr %.3g s horizon %.3g s",
                  c.faults.flap.links, c.faults.flap.mtbf_seconds,
                  c.faults.flap.mttr_seconds, c.faults.flap.horizon_seconds);
    }
    std::printf("\n");
  }
  if (s.workload.tenancy) {
    const WorkloadConfig& w = *s.workload.tenancy;
    std::printf(
        "# pass tenancy: %s %s, %s fidelity, %d jobs x %d iterations, groups "
        "8/16/32, %.0f KiB, %.1f jobs/s (20%% load), churn %d/job, shares "
        "fragmented %.2f buddy %.2f\n",
        to_string(w.scheme), to_string(w.collective), to_string(w.fidelity),
        w.arrivals.jobs, w.arrivals.iterations,
        static_cast<double>(w.arrivals.message_bytes) / 1024.0,
        w.arrivals.rate_per_second, w.churn.events_per_job,
        w.arrivals.fragmented_share, w.arrivals.buddy_share);
  }
}

// ---------------------------------------------------------------------------
// timed

/// Threads the workload's engine runs on: the sharded engine's workers plus
/// its coordinator, else one.
int engine_threads(const Setup& s) {
  int threads = 1;
  for (const ScenarioPass& p : s.workload.passes) {
    if (p.config.shards > 1) threads = std::max(threads, p.config.shards + 1);
  }
  return threads;
}

/// Host speed factor between two calibrations on `threads` threads (1.0 =
/// reference speed).
double speed_factor(double calibration_before, double calibration_after,
                    int threads) {
  return 0.5 * (calibration_before + calibration_after) /
         reference_calibration_seconds(threads);
}

int run_timed(const Args& a) {
  echo_config(a, *std::make_unique<Setup>(a, 0));

  // Each repetition runs fresh inputs. Its set-up (topology, fabric and
  // every generated input) is timed kSetupSamples times, the median counts.
  // Every timed figure is divided by the host's speed factor, calibrated
  // before and after each repetition, so that the host's slow drift (other
  // tenants) cancels out of run-to-run comparisons.
  constexpr int kSetupSamples = 5;
  const int threads = engine_threads(*std::make_unique<Setup>(a, 0));
  double calibration = calibration_seconds(threads);
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  std::vector<double> setup_s;
  std::vector<double> raw_rate;
  std::vector<double> raw_setup_s;
  std::vector<double> rss_mib;
  std::vector<double> factors;
  std::vector<double> walls;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string reference;
  std::string errors;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 3 || seconds_since(start) < a.seconds; ++rep) {
    std::vector<double> samples;
    std::unique_ptr<Setup> setup;
    for (int k = 0; k < kSetupSamples; ++k) {
      const Clock::time_point t0 = Clock::now();
      auto s = std::make_unique<Setup>(a, rep);
      const std::size_t items = generate_all_inputs(*s);
      samples.push_back(seconds_since(t0));
      if (items == 0) throw std::logic_error("workload generated no inputs");
      setup = std::move(s);
    }
    const std::size_t collectives = collectives_of(setup->workload);
    attempted += collectives;
    reset_peak_rss();
    std::size_t done = 0;
    double wall = 0.0;
    double cpu = 0.0;
    try {
      const double cpu0 = cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const std::vector<PassOutcome> passes = run_all_public(*setup, false);
      wall = seconds_since(t0);
      cpu = cpu_seconds() - cpu0;
      for (const PassOutcome& o : passes) done += o.finished;
      if (rep == 0) reference = signature_of(passes);
    } catch (const std::exception& e) {
      errors += "repetition " + std::to_string(rep) + ": " + e.what() + "\n";
    }
    failed += collectives - done;
    rss_mib.push_back(peak_rss_since_reset_mib());
    const double after = calibration_seconds(threads);
    const double factor = speed_factor(calibration, after, threads);
    calibration = after;
    factors.push_back(factor);
    raw_setup_s.push_back(median(samples));
    setup_s.push_back(raw_setup_s.back() / factor);
    if (done == 0) continue;
    walls.push_back(wall);
    raw_rate.push_back(static_cast<double>(done) / wall);
    rate.push_back(raw_rate.back() * factor);
    cpu_ms.push_back(cpu * 1e3 / static_cast<double>(done) / factor);
  }
  if (walls.empty()) walls.push_back(0.0);

  std::printf("# signature %s\n", reference.c_str());
  std::printf("# timed repetitions %zu (fresh inputs each), pass wall median %.4f s "
              "(min %.4f, max %.4f)\n",
              walls.size(), median(walls),
              *std::min_element(walls.begin(), walls.end()),
              *std::max_element(walls.begin(), walls.end()));
  std::printf("# host speed factor median %.3f (min %.3f, max %.3f); before "
              "dividing by it: collectives/s %.4g, set-up %.4g s\n",
              median(factors), *std::min_element(factors.begin(), factors.end()),
              *std::max_element(factors.begin(), factors.end()),
              median(raw_rate), median(raw_setup_s));
  std::printf("# peak RSS per repetition median %.1f MiB (max %.1f)\n",
              median(rss_mib), *std::max_element(rss_mib.begin(), rss_mib.end()));
  if (!errors.empty()) std::printf("# FAILED %s", errors.c_str());
  JsonOut j;
  j.str("mode", "timed");
  j.num("collectives_per_s", median(rate));
  j.num("cpu_ms_per_collective", median(cpu_ms));
  j.num("setup_s", median(setup_s));
  j.num("peak_rss_mib", median(rss_mib));
  j.num("raw_collectives_per_s", median(raw_rate));
  j.num("host_speed_factor", median(factors));
  j.num("repetitions", static_cast<double>(factors.size()));
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.str("errors", errors);
  j.str("signature", reference);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// audit

int run_audit(const Args& a) {
  const auto setup = std::make_unique<Setup>(a, 0);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string errors;
  std::vector<PassOutcome> audited;
  const Clock::time_point t0 = Clock::now();
  const auto audit_one = [&](std::size_t collectives, auto&& run) {
    attempted += collectives;
    try {
      audited.push_back(run());
      failed += audited.back().attempted - audited.back().finished;
    } catch (const StuckFlowError& e) {
      failed += collectives;
      errors += std::string("stuck flows: ") + e.what() + "\n";
    } catch (const std::exception& e) {
      failed += collectives;
      errors += std::string("audit: ") + e.what() + "\n";
    }
  };
  for (const ScenarioPass& p : setup->workload.passes) {
    audit_one(static_cast<std::size_t>(p.config.collectives),
              [&] { return run_public(setup->fabric, p, true); });
  }
  if (setup->workload.tenancy) {
    const WorkloadConfig& w = *setup->workload.tenancy;
    audit_one(static_cast<std::size_t>(w.arrivals.jobs * w.arrivals.iterations),
              [&] { return run_public(setup->fabric, w, true); });
  }
  const double audit_wall = seconds_since(t0);
  if (!errors.empty()) std::printf("# FAILED %s", errors.c_str());

  // The assembled driver, untraced: must match the public driver exactly.
  std::vector<PassOutcome> assembled;
  EngineCounts counts;
  for (const ScenarioPass& p : setup->workload.passes) {
    const ScenarioInputs in = scenario_inputs(p.config, setup->fabric, nullptr);
    assembled.push_back(run_assembled(setup->fabric, p.config, in, nullptr, counts));
  }
  if (counts.sharded) {
    std::printf("# engine sharded: windows_inline %" PRIu64
                " windows_parallel %" PRIu64 "\n",
                counts.windows_inline, counts.windows_parallel);
  }

  JsonOut j;
  j.str("mode", "audit");
  j.num("audit_wall_s", audit_wall);
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.str("errors", errors);
  j.str("audit_signature", errors.empty() ? signature_of(audited) : "");
  j.str("assembled_signature", signature_of(assembled));
  if (counts.sharded) {
    j.num("windows_inline", static_cast<double>(counts.windows_inline));
    j.num("windows_parallel", static_cast<double>(counts.windows_parallel));
  }
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace

/// Per-layer totals summed over the traced repetitions.
struct TraceTotals {
  std::array<LayerStat, kLayerCount> layers{};
  EngineCounts counts;
  std::vector<PassOutcome> outcomes;  ///< last traced repetition
  int reps = 0;

  void add(const Tracer& t) {
    for (int l = 0; l < kLayerCount; ++l) {
      const LayerStat& s = t.stat(static_cast<Layer>(l));
      layers[static_cast<std::size_t>(l)].total_s += s.total_s;
      layers[static_cast<std::size_t>(l)].self_s += s.self_s;
      layers[static_cast<std::size_t>(l)].calls += s.calls;
    }
  }
};

void write_spans(const std::string& path, const Args& a, const Tracer& last,
                 const TraceTotals& totals) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "peel_perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"traced_repetitions\": " << totals.reps << ",\n \"layers\": {";
  for (int l = 0; l < kLayerCount; ++l) {
    const LayerStat& s = totals.layers[static_cast<std::size_t>(l)];
    out << (l ? ",\n  " : "\n  ") << "\"" << layer_name(static_cast<Layer>(l))
        << "\": {\"total_s\": " << s.total_s << ", \"self_s\": " << s.self_s
        << ", \"calls\": " << s.calls << "}";
  }
  out << "},\n \"spans\": [";
  const std::vector<KeptSpan>& spans = last.kept();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << layer_name(spans[i].layer) << "\", \"start_ns\": " << spans[i].start_ns
        << ", \"end_ns\": " << spans[i].end_ns << ", \"parent\": " << spans[i].parent
        << "}";
  }
  out << "]}\n";
}

int run_trace(const Args& a) {
  std::vector<double> build_s;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t0 = Clock::now();
    { const BuiltFabric topology_only(topology_for(a.workload)); }
    build_s.push_back(seconds_since(t0));
  }
  const auto setup = std::make_unique<Setup>(a, 0);
  const Workload& w = setup->workload;
  echo_config(a, *setup);

  const std::vector<PassOutcome> reference = run_all_public(*setup, false);
  const std::string ref_sig = signature_of(reference);

  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> solo_wall;  // bcast_sharded only: same input at 1 worker
  TraceTotals totals;
  Tracer last;
  bool equivalent = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const bool sharded = !w.passes.empty() && w.passes.front().config.shards > 0;
  const Clock::time_point start = Clock::now();
  while (traced_wall.empty() || seconds_since(start) < a.seconds) {
    Clock::time_point t0 = Clock::now();
    const std::vector<PassOutcome> plain = run_all_public(*setup, false);
    untraced_wall.push_back(seconds_since(t0));
    if (signature_of(plain) != ref_sig) equivalent = false;

    Tracer tracer;
    std::vector<PassOutcome> traced;
    t0 = Clock::now();
    if (w.tenancy) {
      // run_workload builds its engine internally: the workload layer is
      // timed by replaying its calls on the same seed, and the rest of the
      // run is one remainder span (flow.run).
      (void)tenancy_inputs(*w.tenancy, setup->fabric, &tracer);
      const Clock::time_point r0 = Clock::now();
      traced.push_back(run_public(setup->fabric, *w.tenancy, false));
      traced_wall.push_back(seconds_since(r0));
    } else {
      for (const ScenarioPass& p : w.passes) {
        const ScenarioInputs in = scenario_inputs(p.config, setup->fabric, &tracer);
        traced.push_back(
            run_assembled(setup->fabric, p.config, in, &tracer, totals.counts));
      }
      traced_wall.push_back(seconds_since(t0));
    }
    if (signature_of(traced) != ref_sig) equivalent = false;
    for (const PassOutcome& o : traced) {
      attempted += o.attempted;
      failed += o.attempted - o.finished;
    }
    totals.add(tracer);
    totals.outcomes = traced;
    ++totals.reps;
    last = std::move(tracer);

    if (sharded) {
      ScenarioPass one = w.passes.front();
      one.config.shards = 1;
      t0 = Clock::now();
      (void)run_public(setup->fabric, one, false);
      solo_wall.push_back(seconds_since(t0));
    }
  }
  if (!a.spans_path.empty()) write_spans(a.spans_path, a, last, totals);

  const double reps = totals.reps;
  const auto self = [&](Layer l) {
    return totals.layers[static_cast<std::size_t>(l)].self_s / reps;
  };
  const auto total = [&](Layer l) {
    return totals.layers[static_cast<std::size_t>(l)].total_s / reps;
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(totals.layers[static_cast<std::size_t>(l)].calls) / reps;
  };
  const auto per_call_us = [&](Layer l) {
    return calls(l) > 0 ? total(l) * 1e6 / calls(l) : 0.0;
  };
  const auto sum_outcomes = [&](auto field) {
    double s = 0.0;
    for (const PassOutcome& o : totals.outcomes) s += static_cast<double>(field(o));
    return s;
  };
  // A metric the workload's engine does not model is absent (null).
  const auto when = [](bool modelled, double v) -> std::optional<double> {
    if (!modelled) return std::nullopt;
    return v;
  };
  const bool scenario = !w.tenancy;
  const bool solo = scenario && !sharded;
  const bool faults =
      std::any_of(w.passes.begin(), w.passes.end(),
                  [](const ScenarioPass& p) { return p.config.faults.any(); });

  double self_sum = 0.0;
  for (int l = 0; l < kLayerCount; ++l) self_sum += self(static_cast<Layer>(l));
  double traced_mean = 0.0;
  for (const double t : traced_wall) traced_mean += t / reps;
  const double traced_median = median(traced_wall);
  const double untraced_median = median(untraced_wall);
  const double events = sum_outcomes([](const PassOutcome& o) { return o.events; });
  const double hits = sum_outcomes([](const PassOutcome& o) { return o.plan_cache.hits; });
  const double misses =
      sum_outcomes([](const PassOutcome& o) { return o.plan_cache.misses; });
  const double windows =
      static_cast<double>(totals.counts.windows_inline + totals.counts.windows_parallel);

  JsonOut j;
  j.str("mode", "trace");
  j.boolean("equivalent", equivalent);
  j.str("reference_signature", ref_sig);
  j.str("traced_signature", signature_of(totals.outcomes));
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.num("untraced_wall_s", untraced_median);
  j.num("traced_wall_s", traced_median);
  j.num("traced_mean_wall_s", traced_mean);
  j.num("traced_repetitions", reps);

  j.num("topology.build_s", median(build_s));
  j.num("workload.arrivals_s", self(kArrivals));
  j.num("workload.placement_us", when(calls(kPlacement) > 0, per_call_us(kPlacement)));
  j.num("workload.placements", calls(kPlacement));
  j.num("workload.churn_us", when(calls(kChurn) > 0, per_call_us(kChurn)));
  j.num("workload.churns", when(w.tenancy.has_value(), calls(kChurn)));

  j.num("sched.events", when(scenario, events));
  j.num("sched.self_s", when(solo, self(kSched)));
  j.num("sched.ns_per_event", when(scenario, untraced_median * 1e9 / events));

  const std::pair<const char*, Layer> handlers[] = {
      {"net.pump", kPump},       {"net.finish_tx", kFinishTx},
      {"net.arrive", kArrive},   {"net.cnp", kCnp},
      {"net.reduce_emit", kReduceEmit}, {"net.sample", kSample}};
  for (const auto& [name, layer] : handlers) {
    j.num(std::string(name) + "_s", when(solo, self(layer)));
    j.num(std::string(name) + "_events",
          when(solo, static_cast<double>(totals.counts.sink_events[layer]) / reps));
  }
  j.num("net.segments",
        when(scenario, sum_outcomes([](const PassOutcome& o) { return o.segments; })));
  j.num("net.segments_lost",
        when(scenario, sum_outcomes([](const PassOutcome& o) { return o.segments_lost; })));
  j.num("net.ecn_marks",
        when(scenario, sum_outcomes([](const PassOutcome& o) { return o.ecn_marks; })));
  j.num("net.pfc_pauses",
        when(scenario, sum_outcomes([](const PassOutcome& o) { return o.pfc_pauses; })));

  j.num("dp.open_stream_s", when(scenario, self(kOpenStream)));
  j.num("dp.open_streams", when(scenario, calls(kOpenStream)));
  j.num("dp.open_stream_us", when(calls(kOpenStream) > 0, per_call_us(kOpenStream)));
  j.num("dp.send_chunk_s", when(scenario, self(kSendChunk)));
  j.num("dp.send_chunks", when(scenario, calls(kSendChunk)));
  j.num("dp.close_stream_s", when(scenario, self(kCloseStream)));
  j.num("dp.cancel_s", when(scenario, self(kCancel)));

  j.num("coll.submit_s", when(scenario, self(kSubmit)));
  j.num("coll.submits", when(scenario, calls(kSubmit)));
  j.num("coll.delivery_s", when(scenario, self(kDelivery)));
  j.num("coll.deliveries", when(scenario, calls(kDelivery)));
  j.num("coll.plan_hits", hits);
  j.num("coll.plan_misses", misses);
  j.num("coll.plan_hit_rate", when(hits + misses > 0, hits / (hits + misses)));
  j.num("coll.recover_s", when(faults, self(kRecover)));
  j.num("coll.recover_passes",
        when(faults, static_cast<double>(totals.counts.recover_passes) / reps));
  j.num("coll.recovered_deliveries",
        when(faults, sum_outcomes([](const PassOutcome& o) { return o.recovered_deliveries; })));

  j.num("faults.delta_apply_s", when(faults, self(kDeltaApply)));
  j.num("faults.deltas", when(faults, static_cast<double>(totals.counts.deltas) / reps));
  j.num("faults.downs",
        when(faults, sum_outcomes([](const PassOutcome& o) { return o.fault_downs; })));
  j.num("faults.ups",
        when(faults, sum_outcomes([](const PassOutcome& o) { return o.fault_ups; })));
  j.num("faults.inject_s", when(faults, self(kInject)));

  j.num("shard.windows_inline",
        when(sharded, static_cast<double>(totals.counts.windows_inline) / reps));
  j.num("shard.windows_parallel",
        when(sharded, static_cast<double>(totals.counts.windows_parallel) / reps));
  j.num("shard.events_per_window", when(sharded && windows > 0, events * reps / windows));
  // The domain queues are internal to ShardedNetwork: everything inside
  // run() that no control-plane span covers is the domains' work, windows,
  // barriers and mailbox drains.
  j.num("shard.domains_s", when(sharded, self(kSched)));
  j.num("shard.speedup_vs_1", when(sharded, median(solo_wall) / untraced_median));

  j.num("flow.events", when(!scenario, events));
  const double workload_layer = self(kArrivals) + self(kPlacement) + self(kChurn);
  j.num("flow.run_s", when(!scenario, traced_median - workload_layer));

  j.num("engine.build_s", when(scenario, self(kEngineBuild)));
  j.num("engine.harvest_s", when(scenario, self(kHarvest)));
  j.num("trace.overhead", traced_median / untraced_median);
  // On tenancy_flow the remainder span makes coverage 1 by construction.
  j.num("trace.coverage", scenario ? self_sum / traced_mean : 1.0);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "timed") return run_timed(a);
    if (a.mode == "audit") return run_audit(a);
    return run_trace(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "peel_perfbench: %s\n", e.what());
    return 1;
  }
}
