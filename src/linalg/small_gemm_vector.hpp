#pragma once
// The `vector` kernel backend: explicit register-blocked SIMD micro-kernels
// for the small-GEMM shapes of linalg/small_gemm.hpp, written with
// GCC/Clang vector extensions (portable across x86/AArch64; the compiler
// lowers the generic vectors to the selected ISA). Selected at runtime
// through linalg/small_gemm_dispatch.hpp.
//
// ISA multi-versioning: each kernel body lives in `VecKernels<Real, W,
// VecBytes>` and is stamped out twice on x86-64 — once at the build's
// baseline vector width (16 B under plain x86-64, wider under -march
// flags) and once as an `__attribute__((target("avx2")))` clone using
// 32-byte vectors. The dispatch layer picks the AVX2 clone at runtime when
// `detectCpuSimd().avx2` reports it, so a *portable* binary still runs
// 256-bit kernels on 256-bit hardware — the LIBXSMM-style benefit of
// runtime kernel selection (paper Sec. IV-B) without JIT. The AVX2 clone
// deliberately does NOT enable FMA: contraction state must match the
// scalar reference compiled under the same flags, or bitwise identity dies
// (docs/KERNELS.md, "Why the backends agree bitwise").
//
// Bitwise contract (enforced by tests/test_kernel_backends.cpp): every
// kernel here produces results bitwise-identical to its scalar reference
// because
//   (1) vector lanes only span *independent output elements* — there is
//       never a reduction across lanes,
//   (2) each output element accumulates its terms in exactly the scalar
//       reference's order (k ascending), with the same zero-skip tests
//       (compacting the nonzero terms of a row up front preserves both),
//   (3) both backends compile under the same floating-point flags and the
//       same FMA availability, so mul+add contraction applies to the same
//       pairs in both.
// What differs is purely the *schedule*: register blocking keeps a chunk of
// the output row in registers across the whole k loop, where the scalar
// reference re-streams the row through memory once per k term.
//
// Width specialization: kernels are templated on the fused width W like the
// scalar reference; W-blocks map onto vectors of min(W, native) lanes so
// W = 2/4/8/16 runs stay W-fused in registers. The compile-time B/F block
// sizes of the DG operators enter through the chunked row loops — chunk
// widths are compile-time, only trip counts depend on the order.
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "linalg/csr.hpp"
#include "linalg/small_gemm.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define NGLTS_HAVE_VECTOR_KERNELS 1

// AVX2 runtime clones: only worth stamping when the baseline does not
// already target AVX2 (with -march=native on a 256-bit host the baseline
// variant is just as wide).
#if defined(__x86_64__) && !defined(__AVX2__)
#define NGLTS_HAVE_AVX2_CLONES 1
#define NGLTS_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define NGLTS_HAVE_AVX2_CLONES 0
#endif

// AVX-512 runtime clones (same rationale, 64-byte vectors: 8 doubles /
// 16 floats per register). Contraction subtlety: AVX512F carries its own
// FMA instruction forms, so `target("avx512f")` alone lets GCC contract
// `acc += a * b` into vfmadd even though the `fma` feature flag is absent.
// On builds whose baseline cannot contract (no __FMA__: plain x86-64,
// where the scalar reference and the AVX2 clones emit separate mul+add)
// that would be an asymmetric contraction — a bitwise break against the
// scalar reference. `optimize("fp-contract=off")` on the clone keeps the
// mul+add pairs separate there. When the baseline itself has FMA
// (__FMA__, e.g. -march=haswell) every backend contracts symmetrically
// and the clone must contract too.
#if defined(__x86_64__) && !defined(__AVX512F__)
#define NGLTS_HAVE_AVX512_CLONES 1
#if defined(__FMA__)
#define NGLTS_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define NGLTS_TARGET_AVX512 __attribute__((optimize("fp-contract=off"), target("avx512f")))
#endif
#else
#define NGLTS_HAVE_AVX512_CLONES 0
#endif

// The helpers pass generic vectors by value; without -mavx GCC warns that
// the (hypothetical out-of-line) call ABI would change. Everything here is
// forced inline, so no ABI is ever exposed — silence the note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace nglts::linalg {

namespace vecdetail {

/// Vector width of the *baseline* variant: the widest ISA the build flags
/// enable (SSE2/NEON 16 B floor — never scalar).
#if defined(__AVX512F__)
inline constexpr int kBaseVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kBaseVecBytes = 32;
#else
inline constexpr int kBaseVecBytes = 16;
#endif

template <typename Real, int Bytes>
struct VecT {
  typedef Real type __attribute__((vector_size(Bytes)));
};

#define NGLTS_VEC_INLINE inline __attribute__((always_inline))

// Unaligned load/store/broadcast; memcpy compiles to single vector moves.
template <typename V, typename Real>
NGLTS_VEC_INLINE V loadu(const Real* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V, typename Real>
NGLTS_VEC_INLINE void storeu(Real* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

template <typename V, typename Real>
NGLTS_VEC_INLINE V splat(Real s) {
  V v;
  for (int i = 0; i < static_cast<int>(sizeof(V) / sizeof(Real)); ++i) v[i] = s;
  return v;
}

constexpr bool isPow2(int w) { return w > 0 && (w & (w - 1)) == 0; }

/// The kernel bodies, parameterized on the vector width so the same code
/// serves the baseline variant and the AVX2 clone. All forced inline: each
/// public entry point below stamps a fully-specialized copy compiled under
/// that entry's target ISA.
template <typename Real, int W, int VecBytes>
struct VecKernels {
  using V = typename VecT<Real, VecBytes>::type;
  static constexpr int_t VL = VecBytes / static_cast<int>(sizeof(Real));
  // Single-lane vector for row tails: keeps the tail's per-term expression
  // in the exact same (contractible) form as the packed chunks, so the
  // compiler's FMA-contraction decision matches the scalar reference's
  // vectorized loops element for element. A plain scalar tail loop is NOT
  // safe: GCC partially vectorizes it with separate mul/add chains while
  // contracting the reference to FMAs — a 1-ulp bitwise break (caught by
  // tests/test_kernel_backends.cpp on tail-bearing shapes).
  using V1 = typename VecT<Real, static_cast<int>(sizeof(Real))>::type;
  // Fused W-block vectors: min(W, VL) lanes, NV of them per block.
  static constexpr int_t VWL = W < VL ? W : VL;
  using VW = typename VecT<Real, VWL * static_cast<int>(sizeof(Real))>::type;
  static constexpr int_t NV = W / (W < VL ? W : VL);

  /// Accumulate `nnz` compacted terms (value, source-row pointer) into one
  /// output row of `len` contiguous elements, 4 vectors (then 1, then
  /// scalars) at a time; the output chunk stays in registers across all
  /// terms. Term order is the caller's list order == ascending k:
  /// bitwise-equal to the scalar reference's per-term row passes.
  NGLTS_VEC_INLINE static void accumulateRow(Real* orow, int_t len, int_t nnz,
                                             const Real* const* src, const Real* val) {
    int_t j = 0;
    for (; j + 4 * VL <= len; j += 4 * VL) {
      V acc0 = loadu<V>(orow + j);
      V acc1 = loadu<V>(orow + j + VL);
      V acc2 = loadu<V>(orow + j + 2 * VL);
      V acc3 = loadu<V>(orow + j + 3 * VL);
      for (int_t t = 0; t < nnz; ++t) {
        const Real* dr = src[t] + j;
        const V avv = splat<V, Real>(val[t]);
        acc0 += avv * loadu<V>(dr);
        acc1 += avv * loadu<V>(dr + VL);
        acc2 += avv * loadu<V>(dr + 2 * VL);
        acc3 += avv * loadu<V>(dr + 3 * VL);
      }
      storeu(orow + j, acc0);
      storeu(orow + j + VL, acc1);
      storeu(orow + j + 2 * VL, acc2);
      storeu(orow + j + 3 * VL, acc3);
    }
    for (; j + VL <= len; j += VL) {
      V acc = loadu<V>(orow + j);
      for (int_t t = 0; t < nnz; ++t) acc += splat<V, Real>(val[t]) * loadu<V>(src[t] + j);
      storeu(orow + j, acc);
    }
    for (; j < len; ++j) {
      V1 acc = loadu<V1>(orow + j);
      for (int_t t = 0; t < nnz; ++t) acc += splat<V1, Real>(val[t]) * loadu<V1>(src[t] + j);
      storeu(orow + j, acc);
    }
  }

  /// Star rows have k <= 9 terms by construction (elastic/anelastic
  /// Jacobian blocks); the compacted term lists live on the stack.
  static constexpr int_t kMaxStarTerms = 32;

  NGLTS_VEC_INLINE static std::uint64_t star(const StarPattern& p, const Real* a, int_t nCols,
                                             int_t ld, const Real* d, Real* o) {
    const int_t len = nCols * W;
    const std::size_t stride = static_cast<std::size_t>(ld) * W;
    const Real* src[kMaxStarTerms];
    Real val[kMaxStarTerms];
    for (int_t r = 0; r < p.rows; ++r) {
      Real* orow = o + static_cast<std::size_t>(r) * stride;
      const int_t rowEnd = p.rowPtr[r + 1];
      // Longer rows than the list capacity take several passes over the
      // output; term order (and bitwise behavior) is unchanged.
      for (int_t i0 = p.rowPtr[r]; i0 < rowEnd; i0 += kMaxStarTerms) {
        const int_t iEnd = i0 + kMaxStarTerms < rowEnd ? i0 + kMaxStarTerms : rowEnd;
        int_t nnz = 0;
        for (int_t i = i0; i < iEnd; ++i) {
          if (a[i] == Real(0)) continue; // zero values, as in the reference
          src[nnz] = d + static_cast<std::size_t>(p.colIdx[i]) * stride;
          val[nnz++] = a[i];
        }
        // Rows without a nonzero term: skip the row pass entirely —
        // re-writing the row unchanged would be bitwise-neutral but wastes
        // bandwidth the scalar reference doesn't spend.
        if (nnz > 0) accumulateRow(orow, len, nnz, src, val);
      }
    }
    return 2ull * p.rows * p.cols * nCols * W;
  }

  NGLTS_VEC_INLINE static std::uint64_t rightDense(int_t nVars, int_t kEff, int_t nEff,
                                                   int_t ldb, const Real* d, const Real* b,
                                                   Real* o, int_t ldd, int_t ldo) {
    if constexpr (W == 1) {
      // Unreachable: the W == 1 entry points delegate to the scalar
      // reference (see below).
      return rightMulDense<Real, 1>(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
    } else {
      // Register-block IB variables x NB fused output columns across the
      // whole kEff loop: the output block and the IB variables' D entries
      // stay in registers, one `b == 0` test and broadcast serves IB
      // variables (the scalar path re-streams each W-block per k term and
      // re-walks B once per variable). Per-output term order stays
      // kk-ascending with the reference's per-(k, n) skip — bitwise-equal.
      constexpr int_t IB = NV > 1 ? 2 : 4;
      constexpr int_t NB = 2;
      const std::size_t dStride = static_cast<std::size_t>(ldd) * W;
      const std::size_t oStride = static_cast<std::size_t>(ldo) * W;
      int_t i0 = 0;
      for (; i0 + IB <= nVars; i0 += IB) {
        const Real* dblk = d + static_cast<std::size_t>(i0) * dStride;
        Real* oblk = o + static_cast<std::size_t>(i0) * oStride;
        int_t n = 0;
        for (; n + NB <= nEff; n += NB) {
          VW acc[IB][NB][NV];
          for (int_t ii = 0; ii < IB; ++ii)
            for (int_t q = 0; q < NB; ++q)
              for (int_t v = 0; v < NV; ++v)
                acc[ii][q][v] = loadu<VW>(oblk + ii * oStride +
                                          static_cast<std::size_t>(n + q) * W + v * VWL);
          for (int_t kk = 0; kk < kEff; ++kk) {
            VW dv[IB][NV];
            for (int_t ii = 0; ii < IB; ++ii)
              for (int_t v = 0; v < NV; ++v)
                dv[ii][v] = loadu<VW>(dblk + ii * dStride +
                                      static_cast<std::size_t>(kk) * W + v * VWL);
            const Real* brow = b + static_cast<std::size_t>(kk) * ldb + n;
            for (int_t q = 0; q < NB; ++q) {
              const Real bv = brow[q];
              if (bv == Real(0)) continue; // operator sparsity, as in the reference
              const VW bvv = splat<VW, Real>(bv);
              for (int_t ii = 0; ii < IB; ++ii)
                for (int_t v = 0; v < NV; ++v) acc[ii][q][v] += dv[ii][v] * bvv;
            }
          }
          for (int_t ii = 0; ii < IB; ++ii)
            for (int_t q = 0; q < NB; ++q)
              for (int_t v = 0; v < NV; ++v)
                storeu(oblk + ii * oStride + static_cast<std::size_t>(n + q) * W + v * VWL,
                       acc[ii][q][v]);
        }
        for (; n < nEff; ++n) {
          VW acc[IB][NV];
          for (int_t ii = 0; ii < IB; ++ii)
            for (int_t v = 0; v < NV; ++v)
              acc[ii][v] =
                  loadu<VW>(oblk + ii * oStride + static_cast<std::size_t>(n) * W + v * VWL);
          for (int_t kk = 0; kk < kEff; ++kk) {
            const Real bv = b[static_cast<std::size_t>(kk) * ldb + n];
            if (bv == Real(0)) continue;
            const VW bvv = splat<VW, Real>(bv);
            for (int_t ii = 0; ii < IB; ++ii)
              for (int_t v = 0; v < NV; ++v)
                acc[ii][v] += loadu<VW>(dblk + ii * dStride +
                                        static_cast<std::size_t>(kk) * W + v * VWL) *
                              bvv;
          }
          for (int_t ii = 0; ii < IB; ++ii)
            for (int_t v = 0; v < NV; ++v)
              storeu(oblk + ii * oStride + static_cast<std::size_t>(n) * W + v * VWL,
                     acc[ii][v]);
        }
      }
      // Variable remainder: one variable at a time, columns register-held.
      for (; i0 < nVars; ++i0) {
        const Real* dmat = d + static_cast<std::size_t>(i0) * dStride;
        Real* omat = o + static_cast<std::size_t>(i0) * oStride;
        for (int_t n = 0; n < nEff; ++n) {
          VW acc[NV];
          for (int_t v = 0; v < NV; ++v)
            acc[v] = loadu<VW>(omat + static_cast<std::size_t>(n) * W + v * VWL);
          for (int_t kk = 0; kk < kEff; ++kk) {
            const Real bv = b[static_cast<std::size_t>(kk) * ldb + n];
            if (bv == Real(0)) continue;
            const Real* dvecp = dmat + static_cast<std::size_t>(kk) * W;
            const VW bvv = splat<VW, Real>(bv);
            for (int_t v = 0; v < NV; ++v) acc[v] += loadu<VW>(dvecp + v * VWL) * bvv;
          }
          for (int_t v = 0; v < NV; ++v)
            storeu(omat + static_cast<std::size_t>(n) * W + v * VWL, acc[v]);
        }
      }
    }
    return 2ull * nVars * kEff * nEff * W;
  }

  /// Variables processed in register blocks of IB: one CSR traversal (and
  /// one bv broadcast per nonzero) serves IB variables' fused W-blocks —
  /// the scalar reference re-walks the CSR arrays once per variable. The
  /// per-output term order stays kk-ascending (the i blocks are disjoint
  /// outputs), so results remain bitwise-equal.
  NGLTS_VEC_INLINE static std::uint64_t rightCsr(int_t nVars, int_t kEff, const Csr<Real>& b,
                                                 const Real* d, Real* o, int_t ldd, int_t ldo) {
    static_assert(W > 1, "W == 1 delegates to the scalar reference (pure scatter)");
    constexpr int_t IB = 8 / NV > 1 ? 8 / NV : 1;  // <= 8 live dvec registers
    const int_t kUse = kEff < b.rows ? kEff : b.rows;
    const int_t nnzUsed = b.rowPtr[kUse] - b.rowPtr[0];
    const std::size_t dStride = static_cast<std::size_t>(ldd) * W;
    const std::size_t oStride = static_cast<std::size_t>(ldo) * W;
    int_t i0 = 0;
    for (; i0 + IB <= nVars; i0 += IB) {
      const Real* dblk = d + static_cast<std::size_t>(i0) * dStride;
      Real* oblk = o + static_cast<std::size_t>(i0) * oStride;
      for (int_t kk = 0; kk < kUse; ++kk) {
        VW dv[IB][NV];
        for (int_t ii = 0; ii < IB; ++ii)
          for (int_t v = 0; v < NV; ++v)
            dv[ii][v] = loadu<VW>(dblk + ii * dStride + static_cast<std::size_t>(kk) * W +
                                  v * VWL);
        for (int_t p = b.rowPtr[kk]; p < b.rowPtr[kk + 1]; ++p) {
          const VW bvv = splat<VW, Real>(b.values[p]);
          const std::size_t co = static_cast<std::size_t>(b.colIdx[p]) * W;
          for (int_t ii = 0; ii < IB; ++ii) {
            Real* ovec = oblk + ii * oStride + co;
            for (int_t v = 0; v < NV; ++v)
              storeu(ovec + v * VWL, loadu<VW>(ovec + v * VWL) + dv[ii][v] * bvv);
          }
        }
      }
    }
    for (; i0 < nVars; ++i0) {
      const Real* dmat = d + static_cast<std::size_t>(i0) * dStride;
      Real* omat = o + static_cast<std::size_t>(i0) * oStride;
      for (int_t kk = 0; kk < kUse; ++kk) {
        const Real* dvecp = dmat + static_cast<std::size_t>(kk) * W;
        VW dv[NV];
        for (int_t v = 0; v < NV; ++v) dv[v] = loadu<VW>(dvecp + v * VWL);
        for (int_t p = b.rowPtr[kk]; p < b.rowPtr[kk + 1]; ++p) {
          const VW bvv = splat<VW, Real>(b.values[p]);
          Real* ovec = omat + static_cast<std::size_t>(b.colIdx[p]) * W;
          for (int_t v = 0; v < NV; ++v)
            storeu(ovec + v * VWL, loadu<VW>(ovec + v * VWL) + dv[v] * bvv);
        }
      }
    }
    return 2ull * nVars * nnzUsed * W;
  }

  NGLTS_VEC_INLINE static void axpy(Real s, const Real* src, Real* dst, std::size_t n) {
    const V sv = splat<V, Real>(s);
    std::size_t i = 0;
    for (; i + 4 * VL <= n; i += 4 * VL) {
      storeu(dst + i, loadu<V>(dst + i) + sv * loadu<V>(src + i));
      storeu(dst + i + VL, loadu<V>(dst + i + VL) + sv * loadu<V>(src + i + VL));
      storeu(dst + i + 2 * VL, loadu<V>(dst + i + 2 * VL) + sv * loadu<V>(src + i + 2 * VL));
      storeu(dst + i + 3 * VL, loadu<V>(dst + i + 3 * VL) + sv * loadu<V>(src + i + 3 * VL));
    }
    for (; i + static_cast<std::size_t>(VL) <= n; i += VL)
      storeu(dst + i, loadu<V>(dst + i) + sv * loadu<V>(src + i));
    const V1 s1 = splat<V1, Real>(s);
    for (; i < n; ++i) storeu(dst + i, loadu<V1>(dst + i) + s1 * loadu<V1>(src + i));
  }
};

} // namespace vecdetail

// ---------------------------------------------------------------------------
// Public entry points: baseline-ISA variants (see small_gemm.hpp for the
// operand shapes and accumulate semantics; flop returns are identical to
// the scalar reference by construction).
//
// W == 1 GEMM shapes delegate to the scalar reference: without a fused
// dimension the loops run over the long contiguous basis dimension, which
// the reference's `omp simd` loops already vectorize optimally — explicit
// lanes only add call and setup overhead there (measured in
// bench/kernel_micro.cpp). This is a documented per-shape choice of the
// vector backend, not a dispatch fallback (docs/KERNELS.md): the backend's
// value is the fused W > 1 layouts, exactly the paper's Sec. IV-A claim.
// ---------------------------------------------------------------------------

template <typename Real, int W>
std::uint64_t starMulVec(const StarPattern& p, const Real* a, int_t nCols, int_t ld,
                         const Real* d, Real* o) {
  if constexpr (W == 1)
    return starMul<Real, 1>(p, a, nCols, ld, d, o);
  else
    return vecdetail::VecKernels<Real, W, vecdetail::kBaseVecBytes>::star(p, a, nCols, ld, d, o);
}

template <typename Real, int W>
std::uint64_t rightMulDenseVec(int_t nVars, int_t kEff, int_t nEff, int_t ldb, const Real* d,
                               const Real* b, Real* o, int_t ldd, int_t ldo) {
  if constexpr (W == 1)
    return rightMulDense<Real, 1>(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, vecdetail::kBaseVecBytes>::rightDense(
        nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
}

template <typename Real, int W>
std::uint64_t rightMulCsrVec(int_t nVars, int_t kEff, const Csr<Real>& b, const Real* d,
                             Real* o, int_t ldd, int_t ldo) {
  if constexpr (W == 1)
    return rightMulCsr<Real, 1>(nVars, kEff, b, d, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, vecdetail::kBaseVecBytes>::rightCsr(nVars, kEff, b, d,
                                                                              o, ldd, ldo);
}

template <typename Real>
void axpyBlockVec(Real s, const Real* src, Real* dst, std::size_t n) {
  vecdetail::VecKernels<Real, 1, vecdetail::kBaseVecBytes>::axpy(s, src, dst, n);
}

// ---------------------------------------------------------------------------
// AVX2 runtime clones (x86-64 portable builds): the same bodies inlined
// into target("avx2") wrappers with 32-byte vectors. Selected by the
// dispatch layer when `detectCpuSimd().avx2` is set. No FMA on purpose —
// see the header comment.
// ---------------------------------------------------------------------------

#if NGLTS_HAVE_AVX2_CLONES

template <typename Real, int W>
NGLTS_TARGET_AVX2 std::uint64_t starMulVecAvx2(const StarPattern& p, const Real* a, int_t nCols,
                                               int_t ld, const Real* d, Real* o) {
  if constexpr (W == 1)
    return starMul<Real, 1>(p, a, nCols, ld, d, o);
  else
    return vecdetail::VecKernels<Real, W, 32>::star(p, a, nCols, ld, d, o);
}

template <typename Real, int W>
NGLTS_TARGET_AVX2 std::uint64_t rightMulDenseVecAvx2(int_t nVars, int_t kEff, int_t nEff,
                                                     int_t ldb, const Real* d, const Real* b,
                                                     Real* o, int_t ldd, int_t ldo) {
  if constexpr (W == 1)
    return rightMulDense<Real, 1>(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, 32>::rightDense(nVars, kEff, nEff, ldb, d, b, o, ldd,
                                                          ldo);
}

template <typename Real, int W>
NGLTS_TARGET_AVX2 std::uint64_t rightMulCsrVecAvx2(int_t nVars, int_t kEff, const Csr<Real>& b,
                                                   const Real* d, Real* o, int_t ldd,
                                                   int_t ldo) {
  if constexpr (W == 1)
    return rightMulCsr<Real, 1>(nVars, kEff, b, d, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, 32>::rightCsr(nVars, kEff, b, d, o, ldd, ldo);
}

template <typename Real>
NGLTS_TARGET_AVX2 void axpyBlockVecAvx2(Real s, const Real* src, Real* dst, std::size_t n) {
  vecdetail::VecKernels<Real, 1, 32>::axpy(s, src, dst, n);
}

#endif // NGLTS_HAVE_AVX2_CLONES

// ---------------------------------------------------------------------------
// AVX-512 runtime clones (x86-64 builds below AVX-512): the same bodies at
// 64-byte vectors — W = 8 doubles or W = 16 floats fill one register, so
// those fused widths run whole W-blocks per instruction. Selected by the
// dispatch layer when `detectCpuSimd().avx512f` is set (checked *before*
// the AVX2 clone). Contraction handling: see NGLTS_TARGET_AVX512 above.
// ---------------------------------------------------------------------------

#if NGLTS_HAVE_AVX512_CLONES

template <typename Real, int W>
NGLTS_TARGET_AVX512 std::uint64_t starMulVecAvx512(const StarPattern& p, const Real* a,
                                                   int_t nCols, int_t ld, const Real* d,
                                                   Real* o) {
  if constexpr (W == 1)
    return starMul<Real, 1>(p, a, nCols, ld, d, o);
  else
    return vecdetail::VecKernels<Real, W, 64>::star(p, a, nCols, ld, d, o);
}

template <typename Real, int W>
NGLTS_TARGET_AVX512 std::uint64_t rightMulDenseVecAvx512(int_t nVars, int_t kEff, int_t nEff,
                                                         int_t ldb, const Real* d,
                                                         const Real* b, Real* o, int_t ldd,
                                                         int_t ldo) {
  if constexpr (W == 1)
    return rightMulDense<Real, 1>(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, 64>::rightDense(nVars, kEff, nEff, ldb, d, b, o, ldd,
                                                          ldo);
}

template <typename Real, int W>
NGLTS_TARGET_AVX512 std::uint64_t rightMulCsrVecAvx512(int_t nVars, int_t kEff,
                                                       const Csr<Real>& b, const Real* d,
                                                       Real* o, int_t ldd, int_t ldo) {
  if constexpr (W == 1)
    return rightMulCsr<Real, 1>(nVars, kEff, b, d, o, ldd, ldo);
  else
    return vecdetail::VecKernels<Real, W, 64>::rightCsr(nVars, kEff, b, d, o, ldd, ldo);
}

template <typename Real>
NGLTS_TARGET_AVX512 void axpyBlockVecAvx512(Real s, const Real* src, Real* dst,
                                            std::size_t n) {
  vecdetail::VecKernels<Real, 1, 64>::axpy(s, src, dst, n);
}

#endif // NGLTS_HAVE_AVX512_CLONES

} // namespace nglts::linalg

#pragma GCC diagnostic pop

#else
#define NGLTS_HAVE_VECTOR_KERNELS 0
#define NGLTS_HAVE_AVX2_CLONES 0
#define NGLTS_HAVE_AVX512_CLONES 0
#endif // __GNUC__ || __clang__
