#!/usr/bin/env bash
# Byte-compares what two builds of bundler_run write, to show that a change
# meant to keep behaviour leaves every output as it was.
#
#   scripts/compare_outputs.sh BASE_BUILD CHANGE_BUILD
#
# Each argument is a build directory holding a bundler_run binary (e.g. a
# Release build of the parent commit and one of the change). Both binaries
# run, side by side:
#   - every scenario from --list-names at --trials 1 --threads 4 (JSON, CSV);
#     the two name lists must match;
#   - --dump-topology of every scenario (DOT);
#   - traced runs (--trace all --trace-ring 30000: JSON, CSV, trace) of six
#     scenarios that cover the dumbbell, the mode machine, competing bundles,
#     the other policies, the managed multi-tenant site and the watchdog.
# The wall-clock "runtime" line of each result file is stripped first. Each
# file that moved prints as a unified diff; the last line reads
# "compared N files, M moved", and the script exits 1 when M > 0.
# About 30 s of wall time per side on a 4-vCPU machine.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_BUILD CHANGE_BUILD" >&2
  exit 2
fi
BASE_BIN="$1/bundler_run"
CHANGE_BIN="$2/bundler_run"
for bin in "${BASE_BIN}" "${CHANGE_BIN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "$0: no bundler_run binary at ${bin}" >&2
    exit 2
  fi
done

TRACED="fig09_fct fig10_cross_traffic fig13_competing_bundles
        sec72_other_policies cdn_edge_flash_crowd feedback_blackout"

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# Writes every output of one binary under DIR.
run_side() {
  local bin="$1" dir="$2" name
  mkdir -p "${dir}/runs" "${dir}/dot" "${dir}/traced"
  "${bin}" --list-names > "${dir}/names.txt"
  for name in $(cat "${dir}/names.txt"); do
    "${bin}" --scenario "${name}" --trials 1 --threads 4 \
      --out "${dir}/runs" --quiet > /dev/null
    "${bin}" --dump-topology "${name}" > "${dir}/dot/${name}.dot"
  done
  for name in ${TRACED}; do
    "${bin}" --scenario "${name}" --trials 1 --threads 4 \
      --out "${dir}/traced" --quiet --trace all --trace-ring 30000 > /dev/null
  done
}

run_side "${BASE_BIN}" "${WORK}/base"
run_side "${CHANGE_BIN}" "${WORK}/change"

if ! diff -u "${WORK}/base/names.txt" "${WORK}/change/names.txt"; then
  echo "$0: the two builds register different scenarios" >&2
  exit 1
fi

# The result files' one wall-clock line is the only nondeterministic one.
stable() { grep -v '"runtime"' "$1" | grep -v '^# runtime '; }

compared=0
moved=0
while IFS= read -r rel; do
  compared=$((compared + 1))
  for side in base change; do
    if [[ ! -f "${WORK}/${side}/${rel}" ]]; then
      echo "--- ${rel}: only one build wrote it (missing from ${side})"
      moved=$((moved + 1))
      continue 2
    fi
  done
  if ! diff -u --label "base/${rel}" --label "change/${rel}" \
      <(stable "${WORK}/base/${rel}") <(stable "${WORK}/change/${rel}"); then
    moved=$((moved + 1))
  fi
done < <(cd "${WORK}" && find base/runs base/dot base/traced \
           change/runs change/dot change/traced -type f |
           cut -d/ -f2- | sort -u)

echo "compared ${compared} files, ${moved} moved"
[[ ${moved} -eq 0 ]]
