#!/usr/bin/env bash
# Release smoke: the byte-exact determinism gate plus audited end-to-end runs
# through scenario_cli, and a toy-size self-check of the benchmark. Gates on
# determinism and correctness, never on speed (speed is perfbench's job:
# python3 perfbench/run.py, see perfbench/README.md).
#
# Usage: scripts/smoke.sh [jobs]
#
# Steps:
#   - Release build of csv_gate_test, scenario_cli, the paper benches and
#     micro_algorithms into build-release/
#   - csv_gate_test: recomputed rows of the committed CSVs, byte for byte
#   - cnp_dynamics in full mode (under 1 s): its CSV must equal the committed
#     cnp_dynamics.csv, and the sender-guard row must still print the 2744
#     CNPs and 13 reactions EXPERIMENTS.md quotes; then again with
#     PEEL_BENCH_TELEMETRY=1 in its own directory, whose CSV must equal the
#     committed one too (the telemetry hooks are passive)
#   - fig6_cct_vs_scale and allreduce_comparison (the figures the DCQCN
#     catch-up carries most), fig5_cct_vs_msgsize and allgather_comparison
#     (the other heavy benches that open many streams), fig7_failure_sweep
#     (recovery passes), fig4_orca_setup (Orca relays and the PEEL+ProgCores
#     migration), ablation_striping (striped streams), ablation_cover_modes
#     (the cover policy, a plan-cache key field) and deployment_ladder (every
#     multicast scheme), in full mode under PEEL_BYTE_AUDIT=1: each CSV must
#     equal the committed one
#   - every paper bench in quick mode, once plain and once under
#     PEEL_BYTE_AUDIT=1 (an audit failure exits non-zero), in two temp
#     dirs; CSVs and stdout must be byte-identical
#   - shard invariance: the same run at 1 and 4 pod-sharded workers, diffed
#   - a congested 1024-GPU broadcast, audited, at 1 and 3 sharded workers:
#     diffed, and its PFC pauses (2071) and mean CCT (513.039 us) must hold,
#     since the guard-swallowed CNPs it drops at the mailbox merge may move
#     only the event count
#   - the same congested broadcast with flapping links, audited, at 1 and 3
#     sharded workers, diffed except for the wall-clock delta-apply line:
#     cross-domain PFC pause mirrors and fail epochs under congestion and
#     repair
#   - flow vs packet: fabric/core byte totals must match exactly (CCT may
#     differ within the tolerances flow_fidelity_test asserts)
#   - in-network AllReduce, audited, and the same run at 1 and 4 sharded
#     workers, diffed
#   - in-network AllReduce under link flapping, audited: the plan cache's
#     in-place repairs must be non-zero and equal the delta-apply line's
#     repaired plans
#   - multi-tenant workload run, audited
#   - multi-tenant workload at flow fidelity (the max-min solver), audited,
#     run twice and diffed
#   - every microbench once (micro_algorithms, minimal time): gates on the
#     exit status, so a microbench that throws or crashes fails the smoke,
#     and on BM_SourceBacklog/{1,16,64}'s events per serialized segment
#     (2.5 / 2.34277 / 2.34058), so a rewrite of the backlogged-source wake
#     that adds or drops an event fails it too; never on speed
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
  micro_algorithms "${BENCHES[@]}"

echo "== determinism gate (csv_gate_test) =="
./build-release/tests/csv_gate_test

echo "== cnp_dynamics, full mode: committed CSV and the quoted guard row =="
mkdir "${OUT}/cnp"
(cd "${OUT}/cnp" &&
   env -u PEEL_BENCH_QUICK "${BENCH}/cnp_dynamics" > cnp_dynamics.stdout)
cmp "${OUT}/cnp/cnp_dynamics.csv" cnp_dynamics.csv
grep -Eq '^sender guard 50us .* 2744 +13 *$' "${OUT}/cnp/cnp_dynamics.stdout" ||
  { echo "cnp_dynamics: sender-guard row no longer reads 2744 CNPs, 13 reactions"
    cat "${OUT}/cnp/cnp_dynamics.stdout"; exit 1; }

echo "== cnp_dynamics, full mode, PEEL_BENCH_TELEMETRY=1: committed CSV =="
mkdir "${OUT}/cnp_telemetry"
(cd "${OUT}/cnp_telemetry" &&
   env -u PEEL_BENCH_QUICK PEEL_BENCH_TELEMETRY=1 "${BENCH}/cnp_dynamics" \
     > cnp_dynamics.stdout)
cmp "${OUT}/cnp_telemetry/cnp_dynamics.csv" cnp_dynamics.csv

echo "== full mode, audited: committed CSVs =="
mkdir "${OUT}/full"
for b in fig5_cct_vs_msgsize fig6_cct_vs_scale allgather_comparison \
         allreduce_comparison fig7_failure_sweep fig4_orca_setup \
         ablation_striping ablation_cover_modes deployment_ladder; do
  (cd "${OUT}/full" &&
     env -u PEEL_BENCH_QUICK -u PEEL_BENCH_SAMPLES PEEL_BYTE_AUDIT=1 \
       "${BENCH}/${b}" > "${b}.stdout")
  cmp "${OUT}/full/${b}.csv" "${b}.csv"
done

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

echo "== merge-time CNP admission (1024-GPU broadcast, --shards=1 vs 3) =="
for s in 1 3; do
  "${CLI}" peel broadcast 1024 4 30 16 --audit --shards="${s}" \
    > "${OUT}/cnp_shards${s}.txt"
done
diff "${OUT}/cnp_shards1.txt" "${OUT}/cnp_shards3.txt"
grep -q 'PFC pauses 2071,' "${OUT}/cnp_shards1.txt" &&
  grep -q '^  mean CCT    513.039 us$' "${OUT}/cnp_shards1.txt" ||
  { echo "sharded broadcast: PFC pauses or mean CCT moved"
    cat "${OUT}/cnp_shards1.txt"; exit 1; }

echo "== flapping congested broadcast (1024 GPUs, --shards=1 vs 3) =="
for s in 1 3; do
  "${CLI}" peel broadcast 1024 4 30 16 --audit --shards="${s}" \
    --flap-mtbf=300 --flap-mttr=60 --flap-links=16 --flap-horizon=3000 |
    grep -v '^  delta apply' > "${OUT}/flap_shards${s}.txt"
done
diff "${OUT}/flap_shards1.txt" "${OUT}/flap_shards3.txt"

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

echo "== flapping in-network AllReduce: plan-cache repairs match delta apply =="
"${CLI}" innet allreduce 256 1 30 100 --flap-mtbf=500 --flap-mttr=300 \
  --flap-links=64 --flap-horizon=15000 --audit --watchdog | tee "${OUT}/innet_flap.txt"
cache_repairs=$(sed -n 's/^  plan cache .*, \([0-9]*\) in-place repair(s)$/\1/p' \
  "${OUT}/innet_flap.txt")
delta_repairs=$(sed -n 's/^  delta apply .*, \([0-9]*\) plan(s) repaired, .*$/\1/p' \
  "${OUT}/innet_flap.txt")
[[ -n "${cache_repairs}" && "${cache_repairs}" == "${delta_repairs}" &&
   "${cache_repairs}" -gt 0 ]] ||
  { echo "plan cache reports '${cache_repairs}' repairs, delta apply '${delta_repairs}'"
    exit 1; }

echo "== multi-tenant workload (scenario_cli --workload, audited) =="
"${CLI}" --workload optimal broadcast 16 1 30 40 --churn=1 --capacity=8 --audit --watchdog

echo "== flow-fidelity workload (scenario_cli --workload --fidelity=flow, audited, twice) =="
FLOW_WORKLOAD=(--workload peel broadcast 16 1 20 40 --fidelity=flow --churn=1
               --frag-share=0.25 --buddy-share=0.5 --audit --watchdog)
"${CLI}" "${FLOW_WORKLOAD[@]}" | tee "${OUT}/flow_workload1.txt"
"${CLI}" "${FLOW_WORKLOAD[@]}" > "${OUT}/flow_workload2.txt"
diff "${OUT}/flow_workload1.txt" "${OUT}/flow_workload2.txt"

echo "== every microbench once (micro_algorithms; backlog wake events pinned) =="
"${BENCH}/micro_algorithms" --benchmark_min_time=0.001 \
  --benchmark_out="${OUT}/micro.json" --benchmark_out_format=json \
  > "${OUT}/micro.txt"
python3 - "${OUT}/micro.json" <<'PY'
import json
import sys

PINNED = {"BM_SourceBacklog/1": 2.5, "BM_SourceBacklog/16": 2.34277,
          "BM_SourceBacklog/64": 2.34058}
with open(sys.argv[1]) as f:
    rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
bad = []
for name, want in PINNED.items():
    got = rows.get(name, {}).get("events_per_segment")
    if got is None or round(got, 5) != want:
        bad.append(f"{name}: events_per_segment {got}, pinned {want}")
if bad:
    sys.exit("\n".join(bad))
PY

echo "== benchmark self-check (perfbench/selfcheck.py) =="
python3 perfbench/selfcheck.py

echo "== smoke passed =="
