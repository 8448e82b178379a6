#!/usr/bin/env bash
# CI entrypoint, tiered:
#   0. lint       — scripts/lint.sh (determinism/zero-alloc rules + self-test)
#   1. build+test — plain build, full ctest, bench/e2e self-test + smoke
#   2. sanitizers — ASan+UBSan full suite, TSan over every concurrent suite
#   3. analyzers  — scripts/analyze.sh --tidy-only when clang-tidy exists
#   4. smoke      — scenario runs with byte-identity determinism checks
#   5. repro      — scripts/repro.sh asserts the paper's headline claims
# Set CHECK_SKIP_SANITIZERS=1 to skip tier 2 (e.g. on machines without
# libasan); CHECK_SKIP_REPRO=1 to skip tier 5 (it simulates several minutes
# of scenario time).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "--- lint tier: determinism/zero-alloc rules"
./scripts/lint.sh

cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "--- benchmark harness: self-test and smoke run of bench/e2e"
# bench/e2e is a standalone CMake project that links bundler_core, so a
# library signature change can break it while ctest stays green. The smoke
# run builds it, runs every workload at 1/10 duration and checks digests.
python3 bench/e2e/run_test.py
python3 bench/e2e/run.py --smoke > build/e2e_smoke.log 2>&1 ||
  { cat build/e2e_smoke.log; exit 1; }

if [[ "${CHECK_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "--- ASan+UBSan test pass"
  cmake -B build-asan -S . -DBUNDLER_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j"${JOBS}"
  (cd build-asan && ctest --output-on-failure -j"${JOBS}")
  # The SACK scoreboard and its users manage raw ring storage, FlowTable
  # poisons released flow objects only under ASan (a stale sender handle
  # faults there and nowhere else), and the qdiscs' shared PacketPool links
  # queues by raw slab index and leaves moved-from packets in freed nodes;
  # run their suites explicitly so an accidental ctest filter can never skip
  # them under the sanitizers.
  (cd build-asan && ctest --output-on-failure --no-tests=error -R \
    'sack_scoreboard_test|tcp_recovery_test|transport_test|flow_reclaim_test|queue_memory_test|qdisc_property_test|qdisc_test|sendbox_manager_test')

  echo "--- TSan pass: every suite that spawns threads or crosses shards"
  # shard_channel/shard_runner: SPSC rings and the CMB null-message protocol;
  # partition/runner/integration-adjacent suites: TrialRunner worker pool and
  # sharded trials; obs: trace capture under the worker pool; flow_reclaim:
  # FlowTable, whose arena is mutex-guarded.
  TSAN_SUITES='shard_channel_test|shard_runner_test|partition_test|runner_test|obs_test|flow_reclaim_test'
  cmake -B build-tsan -S . -DBUNDLER_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j"${JOBS}" --target \
    shard_channel_test shard_runner_test partition_test runner_test \
    obs_test flow_reclaim_test
  (cd build-tsan && ctest --output-on-failure --no-tests=error -R "${TSAN_SUITES}")
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "--- analyzer tier: clang-tidy over changed files"
  ./scripts/analyze.sh --tidy-only
else
  echo "--- analyzer tier: clang-tidy not installed, skipping"
fi

echo "--- topology construction smoke: --dump-topology for every scenario"
for scenario in $(./build/bundler_run --list-names); do
  ./build/bundler_run --dump-topology "${scenario}" > /dev/null
  echo "  ${scenario}: topology OK"
done

# Result files carry one wall-clock "runtime" line (events/sec metadata) that
# is legitimately nondeterministic; strip it before byte-comparing runs.
stable() { grep -v '"runtime"' "$1" | grep -v '^# runtime '; }

echo "--- smoke scenario: link_flap (1 trial — exercises zero-rate park/unpark)"
./build/bundler_run --scenario link_flap --trials 1 --threads 2 \
  --out build/smoke_flap_t2 --quiet
./build/bundler_run --scenario link_flap --trials 1 --threads 4 \
  --out build/smoke_flap_t4 --quiet > /dev/null
cmp <(stable build/smoke_flap_t2/link_flap.json) \
    <(stable build/smoke_flap_t4/link_flap.json)

echo "--- smoke scenario: fig09_fct (2 trials, 2 threads)"
./build/bundler_run --scenario fig09_fct --trials 2 --threads 2 \
  --out build/smoke_t2 --quiet

echo "--- determinism: same seeds on 4 threads must match byte-for-byte"
./build/bundler_run --scenario fig09_fct --trials 2 --threads 4 \
  --out build/smoke_t4 --quiet > /dev/null
cmp <(stable build/smoke_t2/fig09_fct.json) <(stable build/smoke_t4/fig09_fct.json)
cmp <(stable build/smoke_t2/fig09_fct.csv) <(stable build/smoke_t4/fig09_fct.csv)

echo "--- determinism: sec72_other_policies (UDP ping-pong + strict priority), 2 vs 4 threads"
./build/bundler_run --scenario sec72_other_policies --threads 2 \
  --out build/smoke_sec72_t2 --quiet
./build/bundler_run --scenario sec72_other_policies --threads 4 \
  --out build/smoke_sec72_t4 --quiet > /dev/null
cmp <(stable build/smoke_sec72_t2/sec72_other_policies.json) \
    <(stable build/smoke_sec72_t4/sec72_other_policies.json)
cmp <(stable build/smoke_sec72_t2/sec72_other_policies.csv) \
    <(stable build/smoke_sec72_t4/sec72_other_policies.csv)

echo "--- parallel DES: --shards 1 vs --shards 4 must be byte-identical"
# fig09's dumbbell is one indivisible shard (--shards just validates that);
# fat_tree_incast genuinely partitions into 6 shards run by 4 workers.
./build/bundler_run --scenario fig09_fct --trials 1 --shards 1 \
  --out build/smoke_s1 --quiet
./build/bundler_run --scenario fig09_fct --trials 1 --shards 4 \
  --out build/smoke_s4 --quiet > /dev/null
cmp <(stable build/smoke_s1/fig09_fct.json) <(stable build/smoke_s4/fig09_fct.json)
./build/bundler_run --scenario fat_tree_incast --trials 2 --shards 1 \
  --out build/smoke_ft_s1 --quiet
./build/bundler_run --scenario fat_tree_incast --trials 2 --shards 4 \
  --out build/smoke_ft_s4 --quiet > /dev/null
cmp <(stable build/smoke_ft_s1/fat_tree_incast.json) \
    <(stable build/smoke_ft_s4/fat_tree_incast.json)
cmp <(stable build/smoke_ft_s1/fat_tree_incast.csv) \
    <(stable build/smoke_ft_s4/fat_tree_incast.csv)

echo "--- golden byte-identity: fig09/fig10/fig13 regression pins"
# tests/golden/ holds fig09/fig10/fig13 outputs of the single bundle data
# plane (every bundle a BundleController steering its site's SendboxManager
# -> SiteEgress). They are regression pins: same seeds, same JSON and CSV, so
# any behavior change shows up here first. Regenerate them ONLY for an
# intentional, explained change, with scripts/repro.sh as the behavioral
# guard. Last regenerated when the classic Sendbox and its private shaper
# were deleted: each bundler cell gained the manager's 8 admit.s10.* /
# tenant.s10-s100.* counter lines and ~0.2% sim.events_dispatched (early
# site-bucket wake-ups); every fig09/fig10 FCT, throughput and existing ctr.*
# line is unchanged, while fig13's 42:42 cell drifted slightly (bundle 1
# median slowdown 48.44 -> 49.37, 11.04 -> 10.83 Mbit/s).
for scenario in fig09_fct fig10_cross_traffic fig13_competing_bundles; do
  ./build/bundler_run --scenario "${scenario}" --trials 1 \
    --out build/smoke_golden --quiet > /dev/null
  cmp <(stable "build/smoke_golden/${scenario}.json") \
      <(stable "tests/golden/${scenario}.json")
  cmp <(stable "build/smoke_golden/${scenario}.csv") \
      <(stable "tests/golden/${scenario}.csv")
  echo "  ${scenario}: golden OK"
done

echo "--- smoke scenario: cdn_edge_flash_crowd (multi-tenant admission + isolation)"
# 200+ tenant bundles through one SendboxManager: admission must reject the
# over-budget tail with explicit counters, and the run must stay
# byte-identical across worker threads and conservative shards.
./build/bundler_run --scenario cdn_edge_flash_crowd --trials 1 \
  --out build/smoke_cdn --quiet
./build/bundler_run --scenario cdn_edge_flash_crowd --trials 1 --threads 4 \
  --out build/smoke_cdn_t4 --quiet > /dev/null
cmp <(stable build/smoke_cdn/cdn_edge_flash_crowd.json) \
    <(stable build/smoke_cdn_t4/cdn_edge_flash_crowd.json)
cmp <(stable build/smoke_cdn/cdn_edge_flash_crowd.csv) \
    <(stable build/smoke_cdn_t4/cdn_edge_flash_crowd.csv)
./build/bundler_run --scenario cdn_edge_flash_crowd --trials 1 --shards 4 \
  --out build/smoke_cdn_s4 --quiet > /dev/null
cmp <(stable build/smoke_cdn/cdn_edge_flash_crowd.json) \
    <(stable build/smoke_cdn_s4/cdn_edge_flash_crowd.json)
python3 - build/smoke_cdn/cdn_edge_flash_crowd.json <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
managed = next(c for c in cells if c["variant"] == "managed")
s = {k: v["mean"] for k, v in managed["scalars"].items()}
assert s["admitted"] >= 200, s
assert s["rejected"] >= 1, s
assert s["ctr.admit.s1.rejected_budget"] == s["rejected"], s
print(f"  admission: {s['admitted']:.0f} admitted, "
      f"{s['rejected']:.0f} rejected (budget), counters agree")
EOF

echo "--- smoke scenario: feedback_blackout (faulted control loop + watchdog)"
# A faulted run must stay byte-identical across thread and shard counts: the
# injector draws RNG only for targeted packets in arrival order, which the
# determinism contract fixes.
./build/bundler_run --scenario feedback_blackout --trials 1 --threads 2 \
  --out build/smoke_fault_t2 --quiet
./build/bundler_run --scenario feedback_blackout --trials 1 --threads 4 \
  --out build/smoke_fault_t4 --quiet > /dev/null
cmp <(stable build/smoke_fault_t2/feedback_blackout.json) \
    <(stable build/smoke_fault_t4/feedback_blackout.json)
./build/bundler_run --scenario feedback_blackout --trials 1 --shards 4 \
  --out build/smoke_fault_s4 --quiet > /dev/null
cmp <(stable build/smoke_fault_t2/feedback_blackout.json) \
    <(stable build/smoke_fault_s4/feedback_blackout.json)

echo "--- traced scenario: fig02_queue_shift with the flight recorder armed"
./build/bundler_run --scenario fig02_queue_shift --trace all --threads 2 \
  --out build/smoke_trace_t2 --quiet
./build/bundler_run --scenario fig02_queue_shift --trace all --threads 4 \
  --out build/smoke_trace_t4 --quiet > /dev/null
TRACE=build/smoke_trace_t2/fig02_queue_shift.trace.jsonl
test -s "${TRACE}"

echo "--- trace JSONL schema: every line is a typed record with mandatory keys"
awk '
  /^\{"type":"trial","signature":".+"\}$/ { trials++; next }
  /^\{"type":"component","id":[0-9]+,"kind":"[a-z_]+","name":".*"\}$/ { next }
  /^\{"type":"record","t_ns":-?[0-9]+,"cat":"[a-z]+","ev":"[a-z_]+","comp":[0-9]+,"a":[0-9]+,"b":[0-9]+,"c":[0-9]+\}$/ { records++; next }
  /^\{"type":"trace_end","records":[0-9]+,"dropped":[0-9]+\}$/ { ends++; next }
  { print "check.sh: FAIL — bad trace line " NR ": " $0; exit 1 }
  END {
    if (trials < 1 || records < 1 || trials != ends) {
      print "check.sh: FAIL — trace missing sections (trials=" trials \
            " records=" records " trace_ends=" ends ")"
      exit 1
    }
  }
' "${TRACE}"

echo "--- trace determinism: byte-identical at --threads 2 vs 4"
cmp "${TRACE}" build/smoke_trace_t4/fig02_queue_shift.trace.jsonl

if [[ "${CHECK_SKIP_REPRO:-0}" != "1" ]]; then
  echo "--- repro tier: headline claims as asserted ranges"
  ./scripts/repro.sh
else
  echo "--- repro tier: skipped (CHECK_SKIP_REPRO=1)"
fi

echo "check.sh: OK"
