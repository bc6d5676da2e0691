#pragma once
// The `vector` kernel backend: explicit register-blocked SIMD micro-kernels
// for the small-GEMM shapes of linalg/small_gemm.hpp, written with
// GCC/Clang vector extensions (portable across x86/AArch64; the compiler
// lowers the generic vectors to the selected ISA).
//
// ISA multi-versioning: each kernel body lives in `VecKernels<Real, W,
// VecBytes>`, forced inline and free of target attributes. The one TU that
// includes this header, linalg/kernel_backend.cpp, stamps the bodies into
// dispatch tables: once at the build's baseline vector width (16 B under
// plain x86-64, wider under -march flags) and, on portable x86-64 builds,
// once more per runtime clone (`target("avx2")` at 32 B, `target("avx512f")`
// at 64 B). CPU detection picks the widest clone the host runs, so a
// *portable* binary still runs 256/512-bit kernels on such hardware — the
// LIBXSMM-style benefit of runtime kernel selection (paper Sec. IV-B)
// without JIT. No clone enables FMA contraction the baseline lacks:
// contraction state must match the scalar reference compiled under the
// same flags, or bitwise identity dies (docs/KERNELS.md, "Why the backends
// agree bitwise").
//
// Bitwise contract (enforced by tests/test_kernel_backends.cpp): every
// kernel here produces results bitwise-identical to its scalar reference
// because
//   (1) vector lanes only span *independent output elements* — there is
//       never a reduction across lanes,
//   (2) each output element accumulates its terms in exactly the scalar
//       reference's order (k ascending), with the same zero-skip tests,
//   (3) both backends compile under the same floating-point flags and the
//       same FMA availability, so mul+add contraction applies to the same
//       pairs in both.
// What differs is purely the *schedule*: register blocking keeps a chunk of
// the output row in registers across the whole k loop, where the scalar
// reference re-streams the row through memory once per k term. A row that
// is not a whole number of vectors ends in an *overlapped* last full vector
// rather than a scalar tail (`VecKernels::vecOffset`).
//
// Width specialization: kernels are templated on the fused width W like the
// scalar reference; W-blocks map onto vectors of min(W, native) lanes so
// W = 2/4/8/16 runs stay W-fused in registers. At W = 1 the rows run along
// the basis dimension (nb = 20 at order 4): column blocks of up to 4
// vectors, the next narrower vector width for rows shorter than one vector.
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "linalg/csr.hpp"
#include "linalg/small_gemm.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define NGLTS_HAVE_VECTOR_KERNELS 1

// The helpers pass generic vectors by value; without -mavx GCC warns that
// the (hypothetical out-of-line) call ABI would change. Everything here is
// forced inline, so no ABI is ever exposed — silence the note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace nglts::linalg {

namespace vecdetail {

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

// Broadcast through a filled stack array: in context this compiles to one
// `vbroadcasts[sd]`. The element-wise `v[i] = s` loop (and `{s, s, ...}` or
// index-sequence initializers) compile, inside the target("avx512f")
// clones, to a chain of 8/16 dependent masked broadcasts; `V{} + s` is one
// broadcast but turns -0.0 into +0.0. The copy is a memcpy, not `loadu`:
// a vector-returning call here trips -Wpsabi at the end of every includer.
template <typename V, typename Real>
NGLTS_VEC_INLINE V splat(Real s) {
  Real lanes[sizeof(V) / sizeof(Real)];
  for (Real& x : lanes) x = s;
  V v;
  __builtin_memcpy(&v, lanes, sizeof(V));
  return v;
}

/// The kernel bodies, parameterized on the vector width so the same code
/// serves the baseline variant and every clone. All forced inline: each
/// dispatch-table entry (kernel_backend.cpp) stamps a fully-specialized
/// copy compiled under that entry's target ISA.
template <typename Real, int W, int VecBytes>
struct VecKernels {
  using V = typename VecT<Real, VecBytes>::type;
  static constexpr int_t VL = VecBytes / static_cast<int>(sizeof(Real));
  // Single-lane vector for the axpy tail: keeps the tail's expression in
  // the same (contractible) form as the packed chunks. A plain scalar tail
  // loop is NOT safe: GCC may compile it with another mul/add contraction
  // than the reference's vectorized loop — a 1-ulp bitwise break.
  using V1 = typename VecT<Real, static_cast<int>(sizeof(Real))>::type;
  // Fused W-block vectors: min(W, VL) lanes, NV of them per block.
  static constexpr int_t VWL = W < VL ? W : VL;
  using VW = typename VecT<Real, VWL * static_cast<int>(sizeof(Real))>::type;
  static constexpr int_t NV = W / (W < VL ? W : VL);

  // Rows shorter than one vector run at half the width, down to 2 lanes;
  // only rows narrower than that take the scalar reference.
  static constexpr bool kHasNarrower = VecBytes / 2 >= 2 * static_cast<int>(sizeof(Real));
  using Narrower = VecKernels<Real, W, (kHasNarrower ? VecBytes / 2 : VecBytes)>;

  /// Width of the next column block of a row with `rest` (>= VL) elements
  /// left: disjoint blocks of at most 4 vectors, none narrower than one
  /// vector (a 4VL..5VL rest leaves 3 vectors, so the last block keeps 1+).
  static constexpr int_t blockWidth(int_t rest) {
    return rest <= 4 * VL ? rest : rest - 4 * VL >= VL ? 4 * VL : 3 * VL;
  }

  /// Offset of vector v in a block of `width` (VL <= width <= N * VL)
  /// elements: full vectors, the last one overlapping its predecessor
  /// instead of a scalar tail. Every kernel loads a whole block before it
  /// stores any of it, so the shared lanes start from the same values, add
  /// the same terms in the same order, and store identical bits.
  static constexpr int_t vecOffset(int_t v, int_t width) {
    return v * VL < width - VL ? v * VL : width - VL;
  }

  /// One column block of a star row, in registers across all pattern terms
  /// (k ascending, `a == 0` skipped — the scalar reference's order and
  /// skips). `d` points at the block's column in source row 0.
  template <int N>
  NGLTS_VEC_INLINE static void starBlock(Real* orow, int_t width, const int_t* col,
                                         const Real* a, int_t nTerms, const Real* d,
                                         std::size_t stride) {
    int_t off[N];
    V acc[N];
    for (int v = 0; v < N; ++v) {
      off[v] = vecOffset(v, width);
      acc[v] = loadu<V>(orow + off[v]);
    }
    for (int_t t = 0; t < nTerms; ++t) {
      const Real av = a[t];
      if (av == Real(0)) continue;  // zero values, as in the reference
      const Real* drow = d + static_cast<std::size_t>(col[t]) * stride;
      const V avv = splat<V, Real>(av);
      for (int v = 0; v < N; ++v) acc[v] += avv * loadu<V>(drow + off[v]);
    }
    for (int v = 0; v < N; ++v) storeu(orow + off[v], acc[v]);
  }

  /// Every W: a row is nCols * W contiguous outputs, walked in column blocks
  /// of up to 4 register-held vectors.
  NGLTS_VEC_INLINE static std::uint64_t star(const StarPattern& p, const Real* a, int_t nCols,
                                             int_t ld, const Real* d, Real* o) {
    const int_t len = nCols * W;
    if (len < VL) {
      if constexpr (kHasNarrower)
        return Narrower::star(p, a, nCols, ld, d, o);
      else
        return starMul<Real, W>(p, a, nCols, ld, d, o);
    }
    const std::size_t stride = static_cast<std::size_t>(ld) * W;
    for (int_t r = 0; r < p.rows; ++r) {
      const int_t i0 = p.rowPtr[r];
      const int_t nTerms = p.rowPtr[r + 1] - i0;
      if (nTerms == 0) continue;  // e.g. the coupling blocks' velocity rows
      Real* orow = o + static_cast<std::size_t>(r) * stride;
      const int_t* col = p.colIdx.data() + i0;
      for (int_t j = 0; j < len;) {
        const int_t w = blockWidth(len - j);
        switch ((w + VL - 1) / VL) {
          case 1: starBlock<1>(orow + j, w, col, a + i0, nTerms, d + j, stride); break;
          case 2: starBlock<2>(orow + j, w, col, a + i0, nTerms, d + j, stride); break;
          case 3: starBlock<3>(orow + j, w, col, a + i0, nTerms, d + j, stride); break;
          default: starBlock<4>(orow + j, w, col, a + i0, nTerms, d + j, stride); break;
        }
        j += w;
      }
    }
    return 2ull * p.rows * p.cols * nCols * W;
  }

  /// W = 1 right shape, one column block of IB variables' output rows, in
  /// registers across the whole kEff loop: each B row chunk is loaded once
  /// and serves the IB variables, and the reference's per-(variable, k)
  /// `d == 0` skip stays inline. `b` and `o` point at the block's column.
  template <int IB, int N>
  NGLTS_VEC_INLINE static void rightBlockW1(int_t kEff, int_t ldb, const Real* d, int_t ldd,
                                            const Real* b, Real* o, int_t ldo, int_t width) {
    int_t off[N];
    V acc[IB][N];
    for (int v = 0; v < N; ++v) off[v] = vecOffset(v, width);
    for (int ii = 0; ii < IB; ++ii)
      for (int v = 0; v < N; ++v)
        acc[ii][v] = loadu<V>(o + static_cast<std::size_t>(ii) * ldo + off[v]);
    for (int_t kk = 0; kk < kEff; ++kk) {
      const Real* brow = b + static_cast<std::size_t>(kk) * ldb;
      V bv[N];
      for (int v = 0; v < N; ++v) bv[v] = loadu<V>(brow + off[v]);
      for (int ii = 0; ii < IB; ++ii) {
        const Real dv = d[static_cast<std::size_t>(ii) * ldd + kk];
        if (dv == Real(0)) continue;  // as in the reference
        const V dvv = splat<V, Real>(dv);
        for (int v = 0; v < N; ++v) acc[ii][v] += dvv * bv[v];
      }
    }
    for (int ii = 0; ii < IB; ++ii)
      for (int v = 0; v < N; ++v)
        storeu(o + static_cast<std::size_t>(ii) * ldo + off[v], acc[ii][v]);
  }

  /// All variables of one W = 1 column block, 3 (2 at 4 vectors) at a time.
  template <int N>
  NGLTS_VEC_INLINE static void rightColsW1(int_t nVars, int_t kEff, int_t ldb, const Real* d,
                                           const Real* b, Real* o, int_t ldd, int_t ldo,
                                           int_t width) {
    constexpr int IB = N <= 3 ? 3 : 2;
    int_t i = 0;
    for (; i + IB <= nVars; i += IB)
      rightBlockW1<IB, N>(kEff, ldb, d + static_cast<std::size_t>(i) * ldd, ldd, b,
                          o + static_cast<std::size_t>(i) * ldo, ldo, width);
    for (; i < nVars; ++i)
      rightBlockW1<1, N>(kEff, ldb, d + static_cast<std::size_t>(i) * ldd, ldd, b,
                         o + static_cast<std::size_t>(i) * ldo, ldo, width);
  }

  NGLTS_VEC_INLINE static std::uint64_t rightDense(int_t nVars, int_t kEff, int_t nEff,
                                                   int_t ldb, const Real* d, const Real* b,
                                                   Real* o, int_t ldd, int_t ldo) {
    if constexpr (W == 1) {
      if (nEff < VL) {
        if constexpr (kHasNarrower)
          return Narrower::rightDense(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
        else
          return rightMulDense<Real, 1>(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);
      }
      for (int_t j = 0; j < nEff;) {
        const int_t w = blockWidth(nEff - j);
        switch ((w + VL - 1) / VL) {
          case 1: rightColsW1<1>(nVars, kEff, ldb, d, b + j, o + j, ldd, ldo, w); break;
          case 2: rightColsW1<2>(nVars, kEff, ldb, d, b + j, o + j, ldd, ldo, w); break;
          case 3: rightColsW1<3>(nVars, kEff, ldb, d, b + j, o + j, ldd, ldo, w); break;
          default: rightColsW1<4>(nVars, kEff, ldb, d, b + j, o + j, ldd, ldo, w); break;
        }
        j += w;
      }
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

} // namespace nglts::linalg

#pragma GCC diagnostic pop

#else
#define NGLTS_HAVE_VECTOR_KERNELS 0
#endif // __GNUC__ || __clang__
