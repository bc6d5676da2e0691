#pragma once
// Runtime dispatch for the small-GEMM kernel layer: one function-pointer
// table per (scalar type, fused width W) instantiation, holding either the
// scalar reference kernels (small_gemm.hpp) or the explicit-SIMD backend
// (small_gemm_vector.hpp). `kernels::AderKernels` resolves its table once
// at construction — the per-call indirection is amortized over the hundreds
// to thousands of FLOPs each small-GEMM performs, and the inner loops stay
// fully compiled per backend.
//
// Flop accounting is part of the kernel contract: every entry returns the
// same analytic non-zero-operation count as the scalar reference
// (docs/KERNELS.md, "Flop accounting"), so counters are backend-invariant
// by construction (asserted by tests/test_kernel_backends.cpp).
#include <cstdint>

#include "linalg/kernel_backend.hpp"
#include "linalg/small_gemm.hpp"
#include "linalg/small_gemm_vector.hpp"

namespace nglts::linalg {

/// The dispatchable kernel set (see small_gemm.hpp for operand shapes):
/// the star shape over a fixed pattern, the right shape in dense and CSR
/// form, plus the elementwise axpy (the ADER time-integral accumulation).
template <typename Real, int W>
struct SmallGemmOps {
  std::uint64_t (*star)(const StarPattern& p, const Real* a, int_t nCols, int_t ld,
                        const Real* d, Real* o);
  std::uint64_t (*rightDense)(int_t nVars, int_t kEff, int_t nEff, int_t ldb, const Real* d,
                              const Real* b, Real* o, int_t ldd, int_t ldo);
  std::uint64_t (*rightCsr)(int_t nVars, int_t kEff, const Csr<Real>& b, const Real* d, Real* o,
                            int_t ldd, int_t ldo);
  void (*axpy)(Real s, const Real* src, Real* dst, std::size_t n);
  KernelBackend backend;  ///< kScalar or kVector — which table this is
};

/// The table for a *resolved* backend (kScalar or kVector —
/// pass requests through `resolveKernelBackend` first; kAuto maps to the
/// scalar table here only as a safety net). The vector table exists for
/// power-of-two W (every instantiated fused width) on compilers with
/// vector extensions; otherwise the scalar table is returned for any
/// request. On x86-64 portable builds the vector backend carries
/// additional `target("avx2")` and `target("avx512f")` clone tables,
/// picked here at runtime (widest CPU-supported ISA first) — same bodies,
/// 32/64-byte vectors, bitwise-identical results (small_gemm_vector.hpp).
template <typename Real, int W>
inline const SmallGemmOps<Real, W>& smallGemmOps(KernelBackend resolved) {
  static constexpr SmallGemmOps<Real, W> scalar = {
      &starMul<Real, W>,   &rightMulDense<Real, W>, &rightMulCsr<Real, W>,
      &axpyBlock<Real>,    KernelBackend::kScalar,
  };
#if NGLTS_HAVE_VECTOR_KERNELS
  if constexpr (vecdetail::isPow2(W)) {
    if (resolved == KernelBackend::kVector) {
#if NGLTS_HAVE_AVX512_CLONES
      static constexpr SmallGemmOps<Real, W> vectorAvx512 = {
          &starMulVecAvx512<Real, W>,   &rightMulDenseVecAvx512<Real, W>,
          &rightMulCsrVecAvx512<Real, W>, &axpyBlockVecAvx512<Real>,
          KernelBackend::kVector,
      };
      if (detectCpuSimd().avx512f) return vectorAvx512;
#endif
#if NGLTS_HAVE_AVX2_CLONES
      static constexpr SmallGemmOps<Real, W> vectorAvx2 = {
          &starMulVecAvx2<Real, W>,   &rightMulDenseVecAvx2<Real, W>,
          &rightMulCsrVecAvx2<Real, W>, &axpyBlockVecAvx2<Real>,
          KernelBackend::kVector,
      };
      if (detectCpuSimd().avx2) return vectorAvx2;
#endif
      static constexpr SmallGemmOps<Real, W> vector = {
          &starMulVec<Real, W>,     &rightMulDenseVec<Real, W>, &rightMulCsrVec<Real, W>,
          &axpyBlockVec<Real>,      KernelBackend::kVector,
      };
      return vector;
    }
  }
#endif
  return scalar;
}

} // namespace nglts::linalg
