#!/usr/bin/env bash
# Run the perf-trajectory benches (tab1_performance, kernel_micro) and
# collect their machine-readable artifacts (BENCH_*.json) in one output
# directory. The paper's deterministic figure numbers are ctest cases, not
# benches: `ctest -L paper` (tests/test_paper.cpp).
#
# usage: bench/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing the bench binaries (default: build)
#   OUT_DIR    where the BENCH_*.json / *.csv artifacts land (default: bench-out)
#
# environment:
#   NGLTS_BENCH_SCALE   mesh/time scale multiplier (default 1.0); >= 1 for
#                       meaningful numbers, < 1 for smoke runs.
#
# tab1_performance runs the backend CPU detection picks and records it in
# BENCH_tab1.json ("kernel_backend" key); kernel_micro measures every
# backend (its per-row `backend` argument).
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-out}

if [[ ! -x "$BUILD_DIR/tab1_performance" ]]; then
  echo "run_benches.sh: $BUILD_DIR/tab1_performance not found — build with -DNGLTS_BUILD_BENCHES=ON" >&2
  exit 1
fi

BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
mkdir -p "$OUT_DIR"
cd "$OUT_DIR"

echo "== tab1_performance (Tab. I throughput + time to solution) =="
"$BUILD_DIR/tab1_performance"

if [[ -x "$BUILD_DIR/kernel_micro" ]]; then
  echo "== kernel_micro (Sec. IV per-kernel throughput) =="
  # Writes BENCH_kernel.json by default (see the custom main in kernel_micro.cpp):
  # each row's mean, median, stddev and cv over 5 repetitions.
  "$BUILD_DIR/kernel_micro" --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
else
  echo "== kernel_micro skipped (Google Benchmark not available at configure time) =="
fi

echo
echo "artifacts in $(pwd):"
ls -l BENCH_*.json *.csv 2>/dev/null || true
