#!/usr/bin/env bash
# Performance gate: builds Release, runs the micro_datapath benchmark, and
# emits BENCH_datapath.json (events/sec, per-op ns, allocs/op) so successive
# PRs have a perf trajectory to compare against.
#
# Fails if the event engine's schedule+dispatch microbenchmark is not at
# least BENCH_MIN_SPEEDUP (default 2.0) times the legacy std::function
# queue's events/sec, if the engine allocates on the hot path, or if the
# datapath regresses on allocations: end_to_end_experiment must stay at or
# below BENCH_MAX_E2E_ALLOCS (default 0.01) allocs per simulator event, and
# the qdisc/tcp churn microbenchmarks must stay allocation-free (<= 0.001
# allocs/op, i.e. zero modulo one-off ring growth).
#
# Observability gates (PR 6): the flight recorder must record with zero heap
# allocations per record when enabled (trace_record_enabled <=
# BENCH_MAX_TRACE_ALLOCS, default 0.001), and the tracing-disabled overhead
# bound on end_to_end_experiment (branch-only hook cost x records/event over
# untraced per-event cost) must stay at or below BENCH_MAX_TRACE_OVERHEAD
# (default 0.02, i.e. 2%).
#
# Fault-injection gates (PR 9): the faulted datapath must stay
# allocation-free (fault_injector_churn joins the churn rows), and the
# fault-disabled overhead bound (untargeted fast-path cost per packet over
# the untraced per-event cost, the signed median of five interleaved
# baseline/hook pairs) must stay at or below BENCH_MAX_FAULT_OVERHEAD
# (default 0.02, i.e. 2%).
#
# Multi-tenant sendbox gate (PR 10): the site-egress hierarchy's datapath
# churn (site_egress_churn) joins the allocation-free rows. Every bundle
# rides that hierarchy, so end_to_end_experiment's allocation gate covers
# the sendbox data plane too.
#
# Parallel-DES gates (PR 7): the flow-reclaim and boundary-ring churn rows
# must be allocation-free, and the sharded fat-tree run at 4 workers must
# reach BENCH_MIN_PARALLEL_SPEEDUP times the 1-worker events/sec —
# defaulting to 2.0x with >= 4 cores and to 0.5x otherwise (a box without
# parallelism can only demonstrate that the conservative sync does not
# collapse throughput, not a speedup). The speedup gated is the median of
# five interleaved 1-worker/4-worker pairs (micro_datapath writes each
# pair's ratio to parallel_des_speedup_samples), not one single-shot ratio.
#
# Every gate runs and prints PASS or FAIL, so one failing gate cannot hide
# the readings of the others; the script exits nonzero after the last gate
# if any failed. BENCH_OUT sets where the JSON goes (default
# BENCH_datapath.json).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MIN_SPEEDUP="${BENCH_MIN_SPEEDUP:-2.0}"
if [[ "${JOBS}" -ge 4 ]]; then
  MIN_PARALLEL_SPEEDUP="${BENCH_MIN_PARALLEL_SPEEDUP:-2.0}"
else
  MIN_PARALLEL_SPEEDUP="${BENCH_MIN_PARALLEL_SPEEDUP:-0.5}"
fi
MAX_E2E_ALLOCS="${BENCH_MAX_E2E_ALLOCS:-0.01}"
MAX_CHURN_ALLOCS="${BENCH_MAX_CHURN_ALLOCS:-0.001}"
MAX_TRACE_ALLOCS="${BENCH_MAX_TRACE_ALLOCS:-0.001}"
MAX_TRACE_OVERHEAD="${BENCH_MAX_TRACE_OVERHEAD:-0.02}"
MAX_FAULT_OVERHEAD="${BENCH_MAX_FAULT_OVERHEAD:-0.02}"
OUT="${BENCH_OUT:-BENCH_datapath.json}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"${JOBS}" --target micro_datapath

FAILED=()
# micro_datapath exits 1 on its own if the engine allocated per event, after
# writing the JSON, so the gates below still run. Any other failure leaves
# nothing to gate.
STATUS=0
./build-release/bench/micro_datapath --json "${OUT}" || STATUS=$?
if [[ "${STATUS}" -eq 1 ]]; then
  FAILED+=("engine schedule+dispatch allocs/op (micro_datapath)")
elif [[ "${STATUS}" -ne 0 ]]; then
  echo "bench.sh: FAIL — micro_datapath exited ${STATUS}" >&2
  exit "${STATUS}"
fi

# Readers for the JSON; each prints nothing when the value is missing.
# num_of keeps a leading minus: the fault-disabled overhead is a signed
# median, and noise can put it below zero.
num_of() {
  grep -o "\"$1\": -\?[0-9.]*" "${OUT}" | grep -o -- '-\?[0-9.]*$' || true
}
alloc_of() {
  grep -o "\"name\": \"$1\"[^}]*" "${OUT}" | grep -o '"allocs_per_op": [0-9.]*' |
    grep -o '[0-9.]*$' || true
}
# gate LABEL VALUE OP LIMIT [NOTE]: prints the reading against its gate and
# records a failure when VALUE OP LIMIT does not hold (or VALUE is missing).
gate() {
  local label="$1" value="$2" op="$3" limit="$4" note="${5:-}"
  local verdict=FAIL
  if [[ -n "${value}" ]] &&
     awk -v v="${value}" -v l="${limit}" "BEGIN { exit !(v ${op} l) }"; then
    verdict=PASS
  fi
  echo "${verdict} ${label}: ${value:-missing} (gate: ${op} ${limit}${note})"
  if [[ "${verdict}" == FAIL ]]; then
    FAILED+=("${label}")
  fi
}

gate "schedule+dispatch speedup vs legacy queue (x)" \
  "$(num_of schedule_dispatch_speedup_vs_legacy)" ">=" "${MIN_SPEEDUP}"

# Allocation gates: a regression that reintroduces per-event heap churn on
# the datapath (scoreboard, qdisc queues, engine) must fail loudly.
gate "end_to_end_experiment allocs/event" \
  "$(alloc_of end_to_end_experiment)" "<=" "${MAX_E2E_ALLOCS}"
for bench in qdisc_droptail_churn qdisc_sfq_churn qdisc_fq_codel_churn \
             qdisc_strict_prio_churn site_egress_churn tcp_recovery_churn \
             flow_reclaim_churn boundary_ring_churn fault_injector_churn; do
  gate "${bench} allocs/op" "$(alloc_of "${bench}")" "<=" "${MAX_CHURN_ALLOCS}"
done

# Conservative parallel DES: 4 workers vs 1 on the sharded fat tree.
PDES_SAMPLES="$(grep -o '"parallel_des_speedup_samples": \[[0-9., ]*\]' "${OUT}" |
  grep -o '\[.*\]' || true)"
gate "parallel DES 4-worker median speedup (x)" \
  "$(num_of parallel_des_speedup_w4_over_w1)" ">=" "${MIN_PARALLEL_SPEEDUP}" \
  " on ${JOBS} cores; pairs ${PDES_SAMPLES}"

# Observability gates: recording must be allocation-free, and instrumented
# hooks must be effectively free when tracing is off.
gate "trace_record_enabled allocs/record" \
  "$(alloc_of trace_record_enabled)" "<=" "${MAX_TRACE_ALLOCS}"
gate "tracing-disabled overhead bound" \
  "$(num_of tracing_disabled_overhead_frac)" "<=" "${MAX_TRACE_OVERHEAD}"

# Fault-injection gate: declaring profiles must be ~free for untargeted
# traffic (links with no profile have no injector in their chain at all).
gate "fault-disabled overhead bound" \
  "$(num_of fault_disabled_overhead_frac)" "<=" "${MAX_FAULT_OVERHEAD}"

if [[ "${#FAILED[@]}" -gt 0 ]]; then
  echo "bench.sh: FAIL — ${#FAILED[@]} gate(s) failed (wrote ${OUT}):" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "bench.sh: OK (wrote ${OUT})"
