#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it (see README.md).
#
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#                    [--json OUT]
#
# Without --workload every workload runs, each in its own process. The
# build and all temporary files stay under .bench_build/ at the repository
# root; every process gets a fresh JIT cache directory there, removed when
# it exits. The last line of standard output is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads=(blas-wide ntt-zkp fhe-serve tenant-churn)
workload="" seed=1 seconds=10 trace=0 json=""

usage() {
  echo "usage: $0 [--workload blas-wide|ntt-zkp|fhe-serve|tenant-churn]" \
       "[--seed S] [--seconds N] [--trace 0|1] [--json OUT]" >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --json) json="$2" ;;
    *) usage ;;
  esac
  shift 2
done

build="$root/.bench_build/e2e"
mkdir -p "$build"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

rundir="$(mktemp -d "$build/run.XXXXXX")"
trap 'rm -rf "$rundir"' EXIT
# The host compiler's temporaries stay inside the repository too.
export TMPDIR="$rundir/tmp"
mkdir -p "$TMPDIR"

run_one() {
  local w="$1" out="$2"
  rm -rf "$rundir/jit" && mkdir -p "$rundir/jit"
  MOMA_JIT_CACHE_DIR="$rundir/jit" "$build/bench_e2e" \
    --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --trace-dir "$build/trace" ${out:+--json "$out"}
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$json"
else
  status=0
  for w in "${workloads[@]}"; do
    run_one "$w" "${json:+${json%.json}-$w.json}" || status=1
  done
  exit "$status"
fi
