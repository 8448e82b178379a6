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
# the untraced per-event cost) must stay at or below
# BENCH_MAX_FAULT_OVERHEAD (default 0.02, i.e. 2%).
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

# micro_datapath exits nonzero on its own if the engine allocated per event.
./build-release/bench/micro_datapath --json "${OUT}"

SPEEDUP="$(python3 -c "import json; print(json.load(open('${OUT}'))['schedule_dispatch_speedup_vs_legacy'])" 2>/dev/null ||
  grep -o '"schedule_dispatch_speedup_vs_legacy": [0-9.]*' "${OUT}" | grep -o '[0-9.]*$')"

echo "schedule+dispatch speedup vs legacy queue: ${SPEEDUP}x (gate: >= ${MIN_SPEEDUP}x)"
awk -v s="${SPEEDUP}" -v min="${MIN_SPEEDUP}" 'BEGIN { exit !(s >= min) }' || {
  echo "bench.sh: FAIL — speedup ${SPEEDUP}x below gate ${MIN_SPEEDUP}x" >&2
  exit 1
}

# Allocation gates: a regression that reintroduces per-event heap churn on
# the datapath (scoreboard, qdisc queues, engine) must fail loudly.
alloc_of() {
  grep -o "\"name\": \"$1\"[^}]*" "${OUT}" | grep -o '"allocs_per_op": [0-9.]*' |
    grep -o '[0-9.]*$'
}
E2E_ALLOCS="$(alloc_of end_to_end_experiment)"
echo "end_to_end_experiment allocs/event: ${E2E_ALLOCS} (gate: <= ${MAX_E2E_ALLOCS})"
awk -v a="${E2E_ALLOCS}" -v max="${MAX_E2E_ALLOCS}" 'BEGIN { exit !(a <= max) }' || {
  echo "bench.sh: FAIL — end_to_end_experiment ${E2E_ALLOCS} allocs/event above gate ${MAX_E2E_ALLOCS}" >&2
  exit 1
}
for bench in qdisc_droptail_churn qdisc_sfq_churn qdisc_fq_codel_churn \
             qdisc_strict_prio_churn site_egress_churn tcp_recovery_churn \
             link_event_rearm_churn flow_reclaim_churn boundary_ring_churn \
             fault_injector_churn; do
  ALLOCS="$(alloc_of "${bench}")"
  awk -v a="${ALLOCS}" -v max="${MAX_CHURN_ALLOCS}" 'BEGIN { exit !(a <= max) }' || {
    echo "bench.sh: FAIL — ${bench} ${ALLOCS} allocs/op above gate ${MAX_CHURN_ALLOCS}" >&2
    exit 1
  }
  echo "${bench} allocs/op: ${ALLOCS} (gate: <= ${MAX_CHURN_ALLOCS})"
done

# Conservative parallel DES: 4 workers vs 1 on the sharded fat tree.
PDES_SPEEDUP="$(grep -o '"parallel_des_speedup_w4_over_w1": [0-9.]*' "${OUT}" |
  grep -o '[0-9.]*$')"
PDES_SAMPLES="$(grep -o '"parallel_des_speedup_samples": \[[0-9., ]*\]' "${OUT}" |
  grep -o '\[.*\]')"
echo "parallel DES 4-worker speedup: median ${PDES_SPEEDUP}x of pairs ${PDES_SAMPLES} (gate: >= ${MIN_PARALLEL_SPEEDUP}x on ${JOBS} cores)"
awk -v s="${PDES_SPEEDUP}" -v min="${MIN_PARALLEL_SPEEDUP}" 'BEGIN { exit !(s >= min) }' || {
  echo "bench.sh: FAIL — parallel DES median speedup ${PDES_SPEEDUP}x below gate ${MIN_PARALLEL_SPEEDUP}x" >&2
  exit 1
}

# Observability gates: recording must be allocation-free, and instrumented
# hooks must be effectively free when tracing is off.
TRACE_ALLOCS="$(alloc_of trace_record_enabled)"
echo "trace_record_enabled allocs/record: ${TRACE_ALLOCS} (gate: <= ${MAX_TRACE_ALLOCS})"
awk -v a="${TRACE_ALLOCS}" -v max="${MAX_TRACE_ALLOCS}" 'BEGIN { exit !(a <= max) }' || {
  echo "bench.sh: FAIL — trace_record_enabled ${TRACE_ALLOCS} allocs/record above gate ${MAX_TRACE_ALLOCS}" >&2
  exit 1
}
TRACE_OVERHEAD="$(grep -o '"tracing_disabled_overhead_frac": [0-9.]*' "${OUT}" |
  grep -o '[0-9.]*$')"
echo "tracing-disabled overhead bound: ${TRACE_OVERHEAD} (gate: <= ${MAX_TRACE_OVERHEAD})"
awk -v o="${TRACE_OVERHEAD}" -v max="${MAX_TRACE_OVERHEAD}" 'BEGIN { exit !(o <= max) }' || {
  echo "bench.sh: FAIL — tracing-disabled overhead ${TRACE_OVERHEAD} above gate ${MAX_TRACE_OVERHEAD}" >&2
  exit 1
}

# Fault-injection gate: declaring profiles must be ~free for untargeted
# traffic (links with no profile have no injector in their chain at all).
FAULT_OVERHEAD="$(grep -o '"fault_disabled_overhead_frac": [0-9.]*' "${OUT}" |
  grep -o '[0-9.]*$')"
echo "fault-disabled overhead bound: ${FAULT_OVERHEAD} (gate: <= ${MAX_FAULT_OVERHEAD})"
awk -v o="${FAULT_OVERHEAD}" -v max="${MAX_FAULT_OVERHEAD}" 'BEGIN { exit !(o <= max) }' || {
  echo "bench.sh: FAIL — fault-disabled overhead ${FAULT_OVERHEAD} above gate ${MAX_FAULT_OVERHEAD}" >&2
  exit 1
}

echo "bench.sh: OK (wrote ${OUT})"
