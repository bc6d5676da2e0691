#pragma once
// Runtime dispatch for the small-GEMM kernel layer: one function-pointer
// table per (scalar type, fused width W) engine type, holding either the
// scalar reference kernels (small_gemm.hpp) or one ISA variant of the
// explicit-SIMD backend (small_gemm_vector.hpp). `kernels::AderKernels`
// resolves its table once at construction — the per-call indirection is
// amortized over the hundreds to thousands of FLOPs each small-GEMM
// performs, and the inner loops stay fully compiled per backend.
//
// The tables are defined and instantiated in one TU,
// linalg/kernel_backend.cpp, for every engine type of
// `NGLTS_FOR_EACH_ENGINE_TYPE`. That file owns the ISA clone set (which
// variants this build carries, which one dispatches, and its label), and
// it is the only TU that compiles the vector kernels.
//
// Flop accounting is part of the kernel contract: every entry returns the
// same analytic non-zero-operation count as the scalar reference
// (docs/KERNELS.md, "Flop accounting"), so counters are backend-invariant
// by construction (asserted by tests/test_kernel_backends.cpp).
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linalg/kernel_backend.hpp"
#include "linalg/small_gemm.hpp"

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
  const char* isa;        ///< ISA the vector entries run: "avx512f", "avx2", "sse2", ...
                          ///< ("none" on the scalar reference)
};

/// The table for a *resolved* backend (kScalar or kVector — pass requests
/// through `resolveKernelBackend` first; kAuto maps to the scalar table
/// here only as a safety net). kVector returns the first table of
/// `vectorKernelTables`, or the scalar table when that list is empty.
template <typename Real, int W>
const SmallGemmOps<Real, W>& smallGemmOps(KernelBackend resolved);

/// Every vector table this build carries that the host runs, widest ISA
/// first: on portable x86-64 builds the AVX-512 and AVX2 clones the CPU
/// supports, then the baseline variant. Same bodies, bitwise-identical
/// results (small_gemm_vector.hpp). Empty when the vector backend is
/// unavailable (`resolveKernelBackend(kVector)` throws then).
template <typename Real, int W>
const std::vector<const SmallGemmOps<Real, W>*>& vectorKernelTables();

#define NGLTS_SMALL_GEMM_OPS(Real, W, Extern)                                        \
  Extern template const SmallGemmOps<Real, W>& smallGemmOps<Real, W>(KernelBackend); \
  Extern template const std::vector<const SmallGemmOps<Real, W>*>&                    \
  vectorKernelTables<Real, W>();
NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_SMALL_GEMM_OPS, extern)

} // namespace nglts::linalg
