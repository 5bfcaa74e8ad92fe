#!/usr/bin/env python3
"""Simulator benchmark runner.

Builds peel_perfbench from source (CMake, into .bench_build/ at the root of
the checkout), then runs one workload in fresh processes so that each
process's peak RSS belongs to that workload alone:

  --trace 0   `timed` process (end-to-end metrics) + `audit` process
  --trace 1   `audit` process + `trace` process (per-layer metrics)

Prints '#'-prefixed human-readable lines, then one JSON object on the last
line: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload bcast_packet --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "peel_perfbench")

WORKLOADS = ["bcast_packet", "collectives_flap", "tenancy_flow", "bcast_sharded"]

END_TO_END = {
    "collectives_per_s": "1/s",
    "cpu_ms_per_collective": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> unit. Keys of the trace process's JSON, plus the
# ones this script derives (telemetry.audit_ratio, failed_ratio).
PER_LAYER = {
    "topology.build_s": "s",
    "workload.arrivals_s": "s",
    "workload.placement_us": "us",
    "workload.placements": "count",
    "workload.churn_us": "us",
    "workload.churns": "count",
    "sched.events": "count",
    "sched.self_s": "s",
    "sched.ns_per_event": "ns",
    "net.pump_s": "s",
    "net.pump_events": "count",
    "net.finish_tx_s": "s",
    "net.finish_tx_events": "count",
    "net.arrive_s": "s",
    "net.arrive_events": "count",
    "net.cnp_s": "s",
    "net.cnp_events": "count",
    "net.reduce_emit_s": "s",
    "net.reduce_emit_events": "count",
    "net.sample_s": "s",
    "net.sample_events": "count",
    "net.segments": "count",
    "net.segments_lost": "count",
    "net.ecn_marks": "count",
    "net.pfc_pauses": "count",
    "dp.open_stream_s": "s",
    "dp.open_streams": "count",
    "dp.open_stream_us": "us",
    "dp.send_chunk_s": "s",
    "dp.send_chunks": "count",
    "dp.close_stream_s": "s",
    "dp.cancel_s": "s",
    "coll.submit_s": "s",
    "coll.submits": "count",
    "coll.delivery_s": "s",
    "coll.deliveries": "count",
    "coll.plan_hits": "count",
    "coll.plan_misses": "count",
    "coll.plan_hit_rate": "ratio",
    "coll.recover_s": "s",
    "coll.recover_passes": "count",
    "coll.recovered_deliveries": "count",
    "faults.delta_apply_s": "s",
    "faults.deltas": "count",
    "faults.downs": "count",
    "faults.ups": "count",
    "faults.inject_s": "s",
    "shard.windows_inline": "count",
    "shard.windows_parallel": "count",
    "shard.events_per_window": "count",
    "shard.domains_s": "s",
    "shard.speedup_vs_1": "x",
    "flow.events": "count",
    "flow.run_s": "s",
    "engine.build_s": "s",
    "engine.harvest_s": "s",
    "telemetry.audit_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "failed_ratio": "ratio",
}

# A run must end within this many seconds after the build.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits 1 on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def run_child(mode, args, deadline, extra=()):
    """Runs one peel_perfbench process; returns its final JSON object."""
    cmd = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale] + list(extra)
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        log("perfbench: out of time before the %s process" % mode)
        sys.exit(1)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log("perfbench: %s process exceeded the time budget" % mode)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s process failed (exit %d)" % (mode, proc.returncode))
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    audit = run_child("audit", args, deadline)
    problems = []
    if audit["errors"]:
        problems.append("audit: " + audit["errors"].strip())

    if args.trace == 0:
        main_run = run_child("timed", args, deadline)
        reference = main_run["signature"]
        if main_run["errors"]:
            problems.append("timed: " + main_run["errors"].strip())
    else:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans = os.path.join(BUILD, "spans",
                             "%s-seed%d.json" % (args.workload, args.seed))
        main_run = run_child("trace", args, deadline, ["--spans", spans])
        reference = main_run["reference_signature"]
        print("# spans written to %s" % os.path.relpath(spans, ROOT))
        if not main_run["equivalent"]:
            problems.append("traced pass diverged from the public driver:\n"
                            "  public %s\n  traced %s" %
                            (reference, main_run["traced_signature"]))

    # The scenario workloads' assembled driver must reproduce the public
    # driver exactly, and the audited pass must agree with the timed one.
    if audit["assembled_signature"] and audit["assembled_signature"] != reference:
        problems.append("assembled driver diverged from the public driver:\n"
                        "  public    %s\n  assembled %s" %
                        (reference, audit["assembled_signature"]))
    if audit["audit_signature"] and audit["audit_signature"] != reference:
        problems.append("audited pass diverged from the untraced pass:\n"
                        "  untraced %s\n  audited  %s" %
                        (reference, audit["audit_signature"]))

    attempted = int(audit["attempted"] + main_run["attempted"])
    failed = int(audit["failed"] + main_run["failed"])
    failed_ratio = failed / attempted if attempted else 1.0
    print("# signature %s" % reference)
    print("# failed_ratio %s (%d of %d collectives)" %
          (fmt(failed_ratio), failed, attempted))
    for problem in problems:
        print("# FAILED " + problem.replace("\n", "\n# "))
    correct = not problems and failed == 0 and attempted > 0

    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": main_run[name], "unit": unit}
    else:
        values = dict(main_run)
        untraced = main_run["untraced_wall_s"]
        values["telemetry.audit_ratio"] = audit["audit_wall_s"] / untraced
        values["failed_ratio"] = failed_ratio
        absent = []
        for name, unit in PER_LAYER.items():
            value = values.get(name)
            if value is None:
                # Not modelled by this workload's engine. The result line
                # needs a number for every metric; the report says absent.
                absent.append(name)
                value = 0
            metrics[name] = {"value": value, "unit": unit}
        print("# absent (not modelled on %s, reported as 0 below): %s" %
              (args.workload, " ".join(absent) if absent else "none"))
        # Shares of the mean traced wall, which the per-layer self times
        # (means per traced repetition) partition.
        wall = main_run["traced_mean_wall_s"]
        handlers = sum(metrics[n]["value"] for n in PER_LAYER
                       if n in ("sched.self_s", "shard.domains_s") or
                       (n.startswith("net.") and n.endswith("_s")))
        control = sum(metrics[n]["value"] for n in PER_LAYER
                      if n.split(".")[0] in ("coll", "dp", "faults") and
                      n.endswith("_s"))
        if handlers + control > 0:
            print("# shares of the traced wall (%s s): scheduler + packet "
                  "handlers (sharded: domain remainder) %.1f%%, control plane "
                  "(coll + dp + faults) %.1f%%" %
                  (fmt(wall), 100 * handlers / wall, 100 * control / wall))
    for name, m in metrics.items():
        print("# %-28s %14s %s" % (name, fmt(m["value"]), m["unit"]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
