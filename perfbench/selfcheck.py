#!/usr/bin/env python3
"""Toy-size self-check of the benchmark.

Runs every workload of BENCHMARK.json at toy scale (a few collectives per
pass), untraced and traced, and asserts that each run is correct and prints
exactly the named metrics with their units. Takes about a minute after the
build.

  python3 perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "toy"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            try:
                result = run(workload, trace)
            except AssertionError as e:
                failures.append(str(e))
                continue
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append("%s: not correct (%d of %d failed)" %
                                (label, result["failed"], result["attempted"]))
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                failures.append("%s: missing %s, extra %s, wrong unit %s" %
                                (label, missing, extra, wrong))
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    failures.append("%s: %s is not a number" % (label, name))
            print("ok " + label if not failures else "checked " + label,
                  flush=True)
    for failure in failures:
        print("FAIL " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
