#!/usr/bin/env bash
# Timing gates: builds Release, runs bench/micro_datapath and checks the three
# properties that need a clock. Each gate reads the median of five
# interleaved repetitions; micro_datapath writes every repetition's value to
# <gate>_samples in its JSON.
#  - parallel DES: the sharded fat tree at 4 workers must reach 2.0x the
#    1-worker events/sec with >= 4 cores, and 0.5x otherwise (a box without
#    parallelism can only show that the conservative sync does not collapse
#    throughput);
#  - tracing-disabled overhead: the unarmed trace point's cost x records per
#    event over the untraced end-to-end cost per event, at most 2%;
#  - fault-disabled overhead: an untargeted injector's added cost per packet
#    over the same cost per event, at most 2%.
# Allocation counts are exact, so ctest asserts them (README,
# "Zero-allocation datapath").
#
# Every gate prints PASS or FAIL, so one failing gate cannot hide the
# readings of the others; the script exits nonzero after the last gate if
# any failed. BENCH_OUT sets where the JSON goes (default
# build-release/BENCH_datapath.json).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
if [[ "${JOBS}" -ge 4 ]]; then
  MIN_PARALLEL_SPEEDUP=2.0
else
  MIN_PARALLEL_SPEEDUP=0.5
fi
OUT="${BENCH_OUT:-build-release/BENCH_datapath.json}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"${JOBS}" --target micro_datapath
./build-release/bench/micro_datapath --json "${OUT}"

FAILED=()
# gate LABEL KEY OP LIMIT [NOTE]: prints the median KEY and its repetitions
# against the gate, and records a failure when KEY OP LIMIT does not hold
# (or KEY is missing). Values keep a leading minus: an overhead is a signed
# median, and noise can put it below zero.
gate() {
  local label="$1" key="$2" op="$3" limit="$4" note="${5:-}"
  local value samples verdict=FAIL
  value="$(grep -o "\"${key}\": -\?[0-9.]*" "${OUT}" | grep -o -- '-\?[0-9.]*$' || true)"
  samples="$(grep -o "\"${key}_samples\": \[[-0-9., ]*\]" "${OUT}" | grep -o '\[.*\]' || true)"
  if [[ -n "${value}" ]] &&
     awk -v v="${value}" -v l="${limit}" "BEGIN { exit !(v ${op} l) }"; then
    verdict=PASS
  fi
  echo "${verdict} ${label}: ${value:-missing} (gate: ${op} ${limit}${note}; repetitions ${samples})"
  if [[ "${verdict}" == FAIL ]]; then
    FAILED+=("${label}")
  fi
}

gate "parallel DES 4-worker median speedup (x)" parallel_des_speedup ">=" \
  "${MIN_PARALLEL_SPEEDUP}" " on ${JOBS} cores"
gate "tracing-disabled overhead bound" tracing_disabled_overhead "<=" 0.02
gate "fault-disabled overhead bound" fault_disabled_overhead "<=" 0.02

if [[ "${#FAILED[@]}" -gt 0 ]]; then
  echo "bench.sh: FAIL — ${#FAILED[@]} gate(s) failed (wrote ${OUT}):" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "bench.sh: OK (wrote ${OUT})"
