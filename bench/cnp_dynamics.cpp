// §4 congestion-control dynamics, visualized: a multicast sender's DCQCN
// rate over time while two broadcasts contend, under each CNP-coalescing
// policy.  The CSV (time series) shows WHY the guard timer works: without
// coalescing, the per-receiver CNP fan-in keeps resetting recovery and the
// rate stays pinned; the guard bounds reactions to one per 50 us.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/collectives/runner.h"
#include "src/common/stats.h"
#include "src/harness/table.h"
#include "src/sim/trace.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("CNP dynamics — sender rate under coalescing policies",
                "§4 guard timer, mechanism view");

  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);

  CsvWriter csv("cnp_dynamics.csv", {"mode", "time_us", "rate_gbps"});
  Table table({"CNP handling", "mean rate", "min rate", "time below 50%",
               "CNPs", "reactions"});

  struct Mode {
    const char* name;
    CnpMode mode;
  };
  for (const Mode& m :
       {Mode{"sender guard 50us", CnpMode::SenderGuard},
        Mode{"receiver timers", CnpMode::ReceiverTimer},
        Mode{"unthrottled", CnpMode::Unthrottled}}) {
    EventQueue queue;
    SimConfig sim;
    // PEEL_BENCH_TELEMETRY=1 additionally records per-link counters and a
    // per-mode Chrome trace; the hooks are passive, so the rate series (and
    // the CSV) are identical either way.
    bench::apply_env_telemetry(sim);
    Network net(ft.topo, sim, queue);
    RunnerOptions opts;
    opts.multicast_cnp_mode = m.mode;
    CollectiveRunner runner(fabric, net, queue, Rng(7), opts);

    // Two 64-GPU broadcasts whose trees share racks: sustained contention.
    for (int i = 0; i < 2; ++i) {
      BroadcastRequest req;
      req.id = static_cast<std::uint64_t>(i) + 1;
      req.source = ft.gpus[static_cast<std::size_t>(i)];
      for (int g = 0; g < 64; ++g) {
        if (g != i) req.destinations.push_back(ft.gpus[static_cast<std::size_t>(g)]);
      }
      req.message_bytes = 32 * kMiB;
      runner.submit(Scheme::Peel, req);
    }

    // Sample stream 0's rate every 50 us for 8 ms.
    RunningStats rates;
    double min_rate = 1e18;
    int below_half = 0, samples = 0;
    for (SimTime t = 50 * kMicrosecond; t <= 8 * kMillisecond;
         t += 50 * kMicrosecond) {
      queue.at(t, [&, t] {
        // Stream 0 belongs to collective 1 (its first PEEL packet class).
        Dcqcn cc = net.stream_cc(0);
        const double gbps = cc.rate(t) * 8.0;
        rates.add(gbps);
        min_rate = std::min(min_rate, gbps);
        below_half += gbps < 50.0 ? 1 : 0;
        ++samples;
        csv.row({m.name, cell("%lld", static_cast<long long>(t / kMicrosecond)),
                 cell("%.2f", gbps)});
      });
    }
    queue.run();

    const auto& cc = net.stream_cc(0);
    table.add_row({m.name, cell("%.1f Gbps", rates.mean()),
                   cell("%.1f Gbps", min_rate),
                   cell("%.0f%%", 100.0 * below_half / std::max(1, samples)),
                   cell("%llu", static_cast<unsigned long long>(cc.cnps_seen())),
                   cell("%llu", static_cast<unsigned long long>(cc.reactions()))});

    if (const Telemetry* telem = net.telemetry()) {
      const TelemetrySummary summary = telem->summary(queue.now());
      std::string slug = m.name;
      for (char& ch : slug) {
        if (ch == ' ') ch = '_';
      }
      const std::string path = "cnp_dynamics_" + slug + ".trace.json";
      write_chrome_trace(path, summary);
      std::uint64_t pauses = 0;
      SimTime paused = 0;
      for (const LinkTelemetry& t : summary.links) {
        pauses += t.pfc_pauses;
        paused += t.pfc_pause_time;
      }
      std::printf("  [telemetry] %s: %zu CNP events, %llu PFC pauses (%s "
                  "paused) -> %s\n",
                  m.name, summary.cnps.size(),
                  static_cast<unsigned long long>(pauses),
                  format_seconds(sim_to_seconds(paused)).c_str(), path.c_str());
    }
  }
  table.print(std::cout);
  std::printf("\ntime series -> cnp_dynamics.csv (one rate sample per 50 us "
              "per mode)\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("cnp_dynamics", run_bench); }
