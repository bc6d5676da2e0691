#!/usr/bin/env bash
# Run every workload of BENCHMARK.json once, each in its own processes, print
# every metric by name with its unit, and write the result files to OUT_DIR.
# Exits non-zero if any workload fails its output check.
#
#   nglts_bench/run_benchmark.sh [OUT_DIR] [--seed N] [--seconds S] [--trace]
#
# OUT_DIR defaults to .bench_out; compare two such directories with
# nglts_bench/compare.py.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=$root/.bench_out
if [[ $# -gt 0 && $1 != --* ]]; then
  out=$1
  shift
fi
seed=42
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")
trace=0
while [[ $# -gt 0 ]]; do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=1; shift ;;
    *) echo "usage: $0 [OUT_DIR] [--seed N] [--seconds S] [--trace]" >&2; exit 2 ;;
  esac
done

status=0
for wl in $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json"); do
  report=$(python3 "$here/run.py" --workload "$wl" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$out") || status=1
  printf '%s\n' "$report"
  if ! python3 -c 'import json,sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' \
      "$(printf '%s\n' "$report" | tail -n 1)" 2>/dev/null; then
    echo "$wl: output check FAILED" >&2
    status=1
  fi
done
exit $status
