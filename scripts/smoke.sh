#!/usr/bin/env bash
# Release smoke: the byte-exact determinism gate plus audited end-to-end runs
# through scenario_cli, and a toy-size self-check of the benchmark. Gates on
# determinism and correctness, never on speed (speed is perfbench's job:
# python3 perfbench/run.py, see perfbench/README.md).
#
# Usage: scripts/smoke.sh [jobs]
#
# Steps:
#   - Release build of csv_gate_test, scenario_cli and the paper benches
#     into build-release/
#   - csv_gate_test: recomputed rows of the committed CSVs, byte for byte
#   - every paper bench in quick mode, once plain and once under
#     PEEL_BYTE_AUDIT=1 (an audit failure exits non-zero), in two temp
#     dirs; CSVs and stdout must be byte-identical
#   - shard invariance: the same run at 1 and 4 pod-sharded workers, diffed
#   - flow vs packet: fabric/core byte totals must match exactly (CCT may
#     differ within the tolerances flow_fidelity_test asserts)
#   - in-network AllReduce, audited, and the same run at 1 and 4 sharded
#     workers, diffed
#   - multi-tenant workload run, audited
#   - multi-tenant workload at flow fidelity (the max-min solver), audited,
#     run twice and diffed
#   - python3 perfbench/selfcheck.py
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
CLI=./build-release/examples/scenario_cli
BENCH="${PWD}/build-release/bench"
mapfile -t BENCHES < \
  <(sed -n 's/^peel_add_bench(\(.*\))$/\1/p' bench/CMakeLists.txt)
OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

echo "== configure + build build-release (Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}" --target csv_gate_test scenario_cli \
  "${BENCHES[@]}"

echo "== determinism gate (csv_gate_test) =="
./build-release/tests/csv_gate_test

echo "== paper benches, quick mode: plain vs PEEL_BYTE_AUDIT=1 =="
mkdir "${OUT}/plain" "${OUT}/audit"
for b in "${BENCHES[@]}"; do
  (cd "${OUT}/plain" && PEEL_BENCH_QUICK=1 "${BENCH}/${b}" > "${b}.stdout")
  (cd "${OUT}/audit" &&
     PEEL_BENCH_QUICK=1 PEEL_BYTE_AUDIT=1 "${BENCH}/${b}" > "${b}.stdout")
done
diff -r "${OUT}/plain" "${OUT}/audit"

echo "== shard invariance (scenario_cli --shards=1 vs --shards=4) =="
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --shards=1 > "${OUT}/shards1.txt"
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --shards=4 > "${OUT}/shards4.txt"
diff "${OUT}/shards1.txt" "${OUT}/shards4.txt"

echo "== flow vs packet byte totals (scenario_cli --fidelity, audited) =="
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --fidelity=flow | tee "${OUT}/flow.txt"
"${CLI}" peel broadcast 64 8 30 10 --audit --watchdog --fidelity=packet | tee "${OUT}/packet.txt"
diff <(grep -E 'fabric|core links' "${OUT}/flow.txt") \
     <(grep -E 'fabric|core links' "${OUT}/packet.txt")

echo "== in-network AllReduce (scenario_cli innet, audited; --shards=1 vs --shards=4) =="
"${CLI}" innet allreduce 16 8 30 5 --audit --watchdog
"${CLI}" innet allreduce 16 8 30 5 --audit --watchdog --shards=1 > "${OUT}/innet1.txt"
"${CLI}" innet allreduce 16 8 30 5 --audit --watchdog --shards=4 > "${OUT}/innet4.txt"
diff "${OUT}/innet1.txt" "${OUT}/innet4.txt"

echo "== multi-tenant workload (scenario_cli --workload, audited) =="
"${CLI}" --workload optimal broadcast 16 1 30 40 --churn=1 --capacity=8 --audit --watchdog

echo "== flow-fidelity workload (scenario_cli --workload --fidelity=flow, audited, twice) =="
FLOW_WORKLOAD=(--workload peel broadcast 16 1 20 40 --fidelity=flow --churn=1
               --frag-share=0.25 --buddy-share=0.5 --audit --watchdog)
"${CLI}" "${FLOW_WORKLOAD[@]}" | tee "${OUT}/flow_workload1.txt"
"${CLI}" "${FLOW_WORKLOAD[@]}" > "${OUT}/flow_workload2.txt"
diff "${OUT}/flow_workload1.txt" "${OUT}/flow_workload2.txt"

echo "== benchmark self-check (perfbench/selfcheck.py) =="
python3 perfbench/selfcheck.py

echo "== smoke passed =="
