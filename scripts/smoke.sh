#!/usr/bin/env bash
# Release smoke: the byte-exact determinism gate plus audited end-to-end runs
# through scenario_cli, and a toy-size self-check of the benchmark. Gates on
# determinism and correctness, never on speed (speed is perfbench's job:
# python3 perfbench/run.py, see perfbench/README.md).
#
# Usage: scripts/smoke.sh [jobs]
#
# Steps:
#   - Release build of csv_gate_test and scenario_cli into build-release/
#   - csv_gate_test: recomputed rows of the committed CSVs, byte for byte
#   - shard invariance: the same run at 1 and 4 pod-sharded workers, diffed
#   - flow vs packet: fabric/core byte totals must match exactly (CCT may
#     differ within the tolerances flow_fidelity_test asserts)
#   - in-network AllReduce and multi-tenant workload runs, audited
#   - python3 perfbench/selfcheck.py
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
CLI=./build-release/examples/scenario_cli
OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

echo "== configure + build build-release (Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}" --target csv_gate_test scenario_cli

echo "== determinism gate (csv_gate_test) =="
./build-release/tests/csv_gate_test

echo "== shard invariance (scenario_cli --shards=1 vs --shards=4) =="
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --shards=1 > "${OUT}/shards1.txt"
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --shards=4 > "${OUT}/shards4.txt"
diff "${OUT}/shards1.txt" "${OUT}/shards4.txt"

echo "== flow vs packet byte totals (scenario_cli --fidelity, audited) =="
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --fidelity=flow | tee "${OUT}/flow.txt"
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --fidelity=packet | tee "${OUT}/packet.txt"
diff <(grep -E 'fabric|core links' "${OUT}/flow.txt") \
     <(grep -E 'fabric|core links' "${OUT}/packet.txt")

echo "== in-network AllReduce (scenario_cli innet, audited) =="
"${CLI}" innet allreduce 16 8 30 5 --audit --watchdog

echo "== multi-tenant workload (scenario_cli --workload, audited) =="
"${CLI}" --workload optimal broadcast 16 1 30 40 --churn=1 --capacity=8 --audit --watchdog

echo "== benchmark self-check (perfbench/selfcheck.py) =="
python3 perfbench/selfcheck.py

echo "== smoke passed =="
