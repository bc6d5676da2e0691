#pragma once
// Small-matrix kernels for the ADER-DG hot path — our stand-in for
// LIBXSMM's Tensor Processing Primitives (paper Sec. IV-B). This header is
// the *scalar reference backend*: plain triple loops with `omp simd` hints
// that define the numerical contract (summation order, zero-skip tests,
// flop accounting) every other backend must reproduce bitwise. The
// explicit-SIMD backend lives in small_gemm_vector.hpp; runtime selection
// goes through small_gemm_dispatch.hpp / kernel_backend.hpp. Kernel
// taxonomy and the backend rules are documented in docs/KERNELS.md.
//
// DOF tensors are stored as D[var][basis][W] with the fused-simulation width
// W innermost. For W == 1 the kernels vectorize over the trailing matrix
// dimension; for W > 1 they vectorize perfectly over the fused runs, which
// is exactly the paper's trick for exploiting *all* sparsity (Sec. IV-A).
//
// Two operator application shapes cover every DG kernel:
//   star :  O[m][b][w] += A[m][k]   * D[k][b][w]   (Jacobians, flux solvers)
//   right:  O[i][n][w] += D[i][k][w] * B[k][n]     (stiffness, flux matrices)
// star takes its operator as the values of a fixed pattern; right exists in
// dense and CSR form. All kernels accumulate (+=) into their output and
// return the analytic flop count of Tab. I's accounting, never a hardware
// counter (see docs/KERNELS.md, "Flop accounting").
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "linalg/csr.hpp"

namespace nglts::linalg {

/// p[0..n) = 0. Backend-independent (pure memset; no FLOPs counted).
template <typename Real>
inline void zeroBlock(Real* p, std::size_t n) {
  std::memset(p, 0, n * sizeof(Real));
}

/// dst[0..n) = src[0..n). Backend-independent (pure memcpy; no FLOPs).
template <typename Real>
inline void copyBlock(Real* dst, const Real* src, std::size_t n) {
  std::memcpy(dst, src, n * sizeof(Real));
}

/// dst[i] += s * src[i] for i in [0, n). Accumulates; 2n FLOPs (counted by
/// the caller — the ADER time integral, Eq. 4-7, is a chain of these).
template <typename Real>
inline void axpyBlock(Real s, const Real* src, Real* dst, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

// ---------------------------------------------------------------------------
// star: O[m][b][w] += A[m][k] * D[k][b][w]
// ---------------------------------------------------------------------------

/// Fixed sparsity pattern of a small row-major operator A (rows x cols):
/// row r stores the entries colIdx[rowPtr[r] .. rowPtr[r + 1]), columns
/// ascending. Each per-element star block keeps only its values in this
/// order (kernels/element_data.hpp); the pattern is shared by every element.
struct StarPattern {
  int_t rows = 0, cols = 0;
  std::vector<int_t> rowPtr;  // rows + 1 entries
  std::vector<int_t> colIdx;  // nnz entries

  int_t nnz() const { return rowPtr.empty() ? 0 : rowPtr.back(); }
};

/// The union of the nonzero positions of `blocks`: a container of `Matrix`
/// or fixed-size `Block`, all of one shape.
template <typename Blocks = std::vector<Matrix>>
StarPattern unionPattern(const Blocks& blocks) {
  StarPattern p;
  p.rows = blocks.front().rows();
  p.cols = blocks.front().cols();
  p.rowPtr.assign(1, 0);
  for (int_t r = 0; r < p.rows; ++r) {
    for (int_t c = 0; c < p.cols; ++c)
      for (const auto& b : blocks)
        if (b(r, c) != 0.0) {
          p.colIdx.push_back(c);
          break;
        }
    p.rowPtr.push_back(static_cast<int_t>(p.colIdx.size()));
  }
  return p;
}

/// Every entry of a rows x cols block (the dense flux solvers).
inline StarPattern densePattern(int_t rows, int_t cols) {
  Matrix ones(rows, cols);
  for (int_t r = 0; r < rows; ++r)
    for (int_t c = 0; c < cols; ++c) ones(r, c) = 1.0;
  return unionPattern({ones});
}

/// O[rows][nCols][W] += A * D for an operator A stored as the values `a` of
/// pattern `p` — the star shape applying element-local operators (Jacobians
/// A*/B*/C* of Eq. 8-9, Godunov flux solvers of Eq. 10-13) from the left.
/// `ld` is the leading (basis) dimension of the d/o tensors; `nCols <= ld`
/// restricts the columns actually touched (block-sparsity trimming of the
/// Cauchy-Kowalevski recursion). Walks the stored entries in row-major order
/// and skips values == 0; accumulates (+=). Returns the dense analytic count
/// 2 * rows * cols * nCols * W: neither the pattern nor the zero skip
/// changes it. Declared inline so the vector backend, which delegates rows
/// of a single value here from its AVX2/AVX-512 clones, inlines it and runs
/// it at the clone's vector width (GCC does not inline it otherwise).
template <typename Real, int W>
inline std::uint64_t starMul(const StarPattern& p, const Real* a, int_t nCols, int_t ld,
                             const Real* d, Real* o) {
  for (int_t r = 0; r < p.rows; ++r) {
    Real* orow = o + static_cast<std::size_t>(r) * ld * W;
    for (int_t i = p.rowPtr[r]; i < p.rowPtr[r + 1]; ++i) {
      const Real av = a[i];
      if (av == Real(0)) continue;
      const Real* drow = d + static_cast<std::size_t>(p.colIdx[i]) * ld * W;
#pragma omp simd
      for (int_t j = 0; j < nCols * W; ++j) orow[j] += av * drow[j];
    }
  }
  return 2ull * p.rows * p.cols * nCols * W;
}

// ---------------------------------------------------------------------------
// right: O[i][n][w] += D[i][k][w] * B[k][n]
// ---------------------------------------------------------------------------

/// O[nVars][nEff][W] += D[nVars][kEff][W] * B[kEff][nEff] with a dense,
/// row-major B (ldb columns per row) — the right-multiply shape applying
/// the global modal operators (stiffness K_c of Eq. 8-9, flux projections
/// of Eq. 10-13) from the right. kEff <= B.rows restricts the summation
/// (block-sparsity of the Cauchy-Kowalevski recursion: higher derivatives
/// only populate leading modal blocks); nEff <= B.cols restricts the
/// produced columns. `ldd`/`ldo` are the leading (basis) dimensions of the
/// D/O tensors. Accumulates (+=); zero operands are skipped. Returns
/// 2 * nVars * kEff * nEff * W flops (the dense analytic count).
template <typename Real, int W>
std::uint64_t rightMulDense(int_t nVars, int_t kEff, int_t nEff, int_t ldb, const Real* d,
                            const Real* b, Real* o, int_t ldd, int_t ldo) {
  for (int_t i = 0; i < nVars; ++i) {
    const Real* dmat = d + static_cast<std::size_t>(i) * ldd * W;
    Real* omat = o + static_cast<std::size_t>(i) * ldo * W;
    if constexpr (W == 1) {
      for (int_t kk = 0; kk < kEff; ++kk) {
        const Real dv = dmat[kk];
        if (dv == Real(0)) continue;
        const Real* brow = b + static_cast<std::size_t>(kk) * ldb;
#pragma omp simd
        for (int_t n = 0; n < nEff; ++n) omat[n] += dv * brow[n];
      }
    } else {
      for (int_t kk = 0; kk < kEff; ++kk) {
        const Real* dvec = dmat + static_cast<std::size_t>(kk) * W;
        const Real* brow = b + static_cast<std::size_t>(kk) * ldb;
        for (int_t n = 0; n < nEff; ++n) {
          const Real bv = brow[n];
          if (bv == Real(0)) continue;
          Real* ovec = omat + static_cast<std::size_t>(n) * W;
#pragma omp simd
          for (int_t w = 0; w < W; ++w) ovec[w] += dvec[w] * bv;
        }
      }
    }
  }
  return 2ull * nVars * kEff * nEff * W;
}

/// CSR variant of `rightMulDense` (the fused sparse kernels of
/// Sec. IV-A/B). B is stored CSR by rows k; kEff restricts to the leading
/// kEff rows. Same accumulate semantics; returns 2 * nVars * nnzUsed * W
/// flops where nnzUsed counts the nonzeros of the first kEff rows.
template <typename Real, int W>
std::uint64_t rightMulCsr(int_t nVars, int_t kEff, const Csr<Real>& b, const Real* d, Real* o,
                          int_t ldd, int_t ldo) {
  const int_t kUse = kEff < b.rows ? kEff : b.rows;
  const int_t nnzUsed = b.rowPtr[kUse] - b.rowPtr[0];
  for (int_t i = 0; i < nVars; ++i) {
    const Real* dmat = d + static_cast<std::size_t>(i) * ldd * W;
    Real* omat = o + static_cast<std::size_t>(i) * ldo * W;
    for (int_t kk = 0; kk < kUse; ++kk) {
      const Real* dvec = dmat + static_cast<std::size_t>(kk) * W;
      if constexpr (W == 1) {
        const Real dv = dvec[0];
        if (dv == Real(0)) continue;
        for (int_t p = b.rowPtr[kk]; p < b.rowPtr[kk + 1]; ++p)
          omat[b.colIdx[p]] += dv * b.values[p];
      } else {
        for (int_t p = b.rowPtr[kk]; p < b.rowPtr[kk + 1]; ++p) {
          const Real bv = b.values[p];
          Real* ovec = omat + static_cast<std::size_t>(b.colIdx[p]) * W;
#pragma omp simd
          for (int_t w = 0; w < W; ++w) ovec[w] += dvec[w] * bv;
        }
      }
    }
  }
  return 2ull * nVars * nnzUsed * W;
}

// ---------------------------------------------------------------------------
// Static-operator wrapper: keeps a dense and a CSR image of one global DG
// matrix. The *image* (dense block-trimmed vs fully sparse) is chosen by
// the caller per `SimConfig::sparseKernels` (single runs dense, fused runs
// sparse — Sec. IV-A); the *implementation* applied to it (scalar or
// vector backend) is chosen per `SimConfig::kernelBackend` through
// small_gemm_dispatch.hpp. The two choices are orthogonal.
// ---------------------------------------------------------------------------

template <typename Real>
struct SmallOp {
  int_t rows = 0, cols = 0;
  std::vector<Real> dense;  // row-major rows x cols
  Csr<Real> csr;

  SmallOp() = default;
  explicit SmallOp(const Matrix& m, double tol = 1e-14) { assign(m, tol); }

  void assign(const Matrix& m, double tol = 1e-14) {
    rows = m.rows();
    cols = m.cols();
    dense.resize(static_cast<std::size_t>(rows) * cols);
    for (int_t r = 0; r < rows; ++r)
      for (int_t c = 0; c < cols; ++c)
        dense[static_cast<std::size_t>(r) * cols + c] = static_cast<Real>(m(r, c));
    csr = toCsr<Real>(m, tol);
  }
};

} // namespace nglts::linalg
