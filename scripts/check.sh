#!/usr/bin/env bash
# CI entry point: build the plain and sanitized (ASan+UBSan) configurations
# and run the full test suite under each.
#
# Usage: scripts/check.sh [jobs]
#
# Set PEEL_CHECK_TSAN=1 to additionally build a ThreadSanitizer
# configuration and run the concurrency-sensitive tests under it
# (the parallel sweep engine, the Samples::quantile lazy-sort guard, the
# fault-injection sweep determinism tests, which exercise concurrent cells
# mutating private topology copies, and the pod-sharded engine's
# shard-invariance suite, which drives the worker pool + mailbox barriers).
#
# Set PEEL_CHECK_PERF=1 to additionally run the Release smoke leg
# (scripts/smoke.sh): the csv_gate_test determinism gate, audited
# shard-invariance, flow-vs-packet, in-network AllReduce and workload runs
# through scenario_cli, and the benchmark self-check. It gates on
# determinism and correctness, not on speed.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

run_config() {
  local dir="$1"
  shift
  echo "== configure ${dir} ($*) =="
  cmake -B "${dir}" -S . "$@"
  echo "== build ${dir} =="
  cmake --build "${dir}" -j "${JOBS}"
  echo "== ctest ${dir} =="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_config build
run_config build-asan -DPEEL_SANITIZE=ON

if [[ "${PEEL_CHECK_TSAN:-0}" != "0" ]]; then
  echo "== configure build-tsan (-DPEEL_TSAN=ON) =="
  cmake -B build-tsan -S . -DPEEL_TSAN=ON
  echo "== build build-tsan =="
  cmake --build build-tsan -j "${JOBS}" --target sweep_test stats_race_test fault_schedule_test shard_invariance_test
  echo "== ctest build-tsan (concurrency tests) =="
  (cd build-tsan && ctest --output-on-failure -R '^(sweep_test|stats_race_test|fault_schedule_test|shard_invariance_test)$')
fi

if [[ "${PEEL_CHECK_PERF:-0}" != "0" ]]; then
  scripts/smoke.sh "${JOBS}"
fi

echo "== all checks passed =="
