#!/usr/bin/env bash
# Run the perf-trajectory benches and collect their machine-readable
# artifacts (BENCH_*.json) in one output directory.
#
# usage: bench/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing the bench binaries (default: build)
#   OUT_DIR    where the BENCH_*.json / *.csv artifacts land (default: bench-out)
#
# environment:
#   NGLTS_BENCH_SCALE   mesh/time scale multiplier (default 1.0); >= 1 for
#                       meaningful numbers, < 1 for smoke runs.
#   KERNEL              small-GEMM backend the solver benches pin
#                       (auto | scalar | vector; default auto).
#                       Exported as NGLTS_KERNEL to the bench
#                       binaries, which record the resolved backend in
#                       their BENCH_*.json ("kernel_backend" key) so rows
#                       are attributable. kernel_micro always measures
#                       *every* backend (its per-row `backend` argument)
#                       regardless of KERNEL.
#   PRECISION           arithmetic precision the precision-dispatching
#                       solver benches pin (f64 | f32; default f64).
#                       Exported as NGLTS_PRECISION; recorded as the
#                       "precision" key in BENCH_*.json. tab1_performance
#                       reproduces the paper's single-precision Tab. I and
#                       is always f32; kernel_micro always measures both
#                       precisions (the <float|double, W> template type in
#                       each row name) regardless of PRECISION.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-out}
export NGLTS_KERNEL=${KERNEL:-${NGLTS_KERNEL:-auto}}
export NGLTS_PRECISION=${PRECISION:-${NGLTS_PRECISION:-f64}}

if [[ ! -x "$BUILD_DIR/tab1_performance" ]]; then
  echo "run_benches.sh: $BUILD_DIR/tab1_performance not found — build with -DNGLTS_BUILD_BENCHES=ON" >&2
  exit 1
fi

BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
mkdir -p "$OUT_DIR"
cd "$OUT_DIR"

echo "== kernel backend for solver benches: $NGLTS_KERNEL =="

echo "== tab1_performance (Tab. I throughput + time to solution + thread sweep + raw-vs-compressed A/B) =="
"$BUILD_DIR/tab1_performance"

echo "== fig10_scaling (rank scaling + hybrid ranks x threads sweep) =="
"$BUILD_DIR/fig10_scaling"

echo "== batch_throughput (ensemble setup amortization: independent vs memoized/fused) =="
"$BUILD_DIR/batch_throughput"

echo "== fig7_partitions (weighted vs unweighted partition imbalance + runtime A/B) =="
"$BUILD_DIR/fig7_partitions"

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
