#pragma once
// Analytic floating point operation accounting. The paper (Tab. I) reports
// hardware FLOPS and the fraction of "zero operations" removed by sparse
// kernels; we track non-zero useful operations per kernel invocation so the
// harness can report GFLOPS-equivalents and dense-vs-sparse op ratios.
//
// Accounting contract (docs/KERNELS.md, "Flop accounting"): counts are
// *analytic* — derived from operand shapes and stored-nonzero counts, never
// from hardware counters — and therefore identical for every kernel backend
// (`--kernel scalar` / `vector`) and for every precision
// (`--precision f64` / `f32`): a backend or a narrower Real changes how
// fast the operations run, not how many of them are useful. Nothing in
// this header depends on the scalar type, and the per-kernel count
// expressions in linalg/small_gemm.hpp use only shape and nnz arguments —
// keep it that way, or f32-vs-f64 GFLOPS comparisons stop meaning
// anything. Each small-GEMM returns its own count; `AderKernels` sums
// those into the per-thread counters the executor's `WorkspacePool`
// drains into `PerfStats::flops`.
#include <cstdint>

namespace nglts {

/// Additive operation counter, split into adds and multiplies so fused
/// multiply-add accounting (one FMA = 1 add + 1 mul of *useful* work)
/// stays explicit. Aggregated per thread, then summed by
/// `StepExecutor::drainFlops`.
struct FlopCounter {
  std::uint64_t adds = 0;
  std::uint64_t muls = 0;

  /// Count n fused multiply-adds (n adds + n muls).
  void addFma(std::uint64_t n) {
    adds += n;
    muls += n;
  }
  std::uint64_t total() const { return adds + muls; }
  FlopCounter& operator+=(const FlopCounter& o) {
    adds += o.adds;
    muls += o.muls;
    return *this;
  }
};

/// FLOPs of a dense M x K times K x N matrix product with W fused values:
/// 2 * M * N * K * W (one mul + one add per term — the analytic dense
/// count, matching what `rightMulDense`/`starMul` return).
inline std::uint64_t gemmFlops(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                               std::uint64_t w = 1) {
  return 2ull * m * n * k * w;
}

} // namespace nglts
