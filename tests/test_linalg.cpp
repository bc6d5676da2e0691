#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/small_gemm.hpp"

namespace nl = nglts::linalg;
using nglts::int_t;

namespace {

nl::Matrix randomMatrix(int_t r, int_t c, unsigned seed, double sparsity = 0.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  nl::Matrix m(r, c);
  for (int_t i = 0; i < r; ++i)
    for (int_t j = 0; j < c; ++j)
      if (pick(rng) >= sparsity) m(i, j) = uni(rng);
  return m;
}

} // namespace

TEST(Dense, IdentityAndMultiply) {
  const nl::Matrix a = randomMatrix(4, 4, 1);
  const nl::Matrix prod = a * nl::Matrix::identity(4);
  EXPECT_NEAR(prod.distance(a), 0.0, 1e-14);
}

TEST(Dense, TransposeInvolution) {
  const nl::Matrix a = randomMatrix(5, 3, 2);
  EXPECT_NEAR(a.transposed().transposed().distance(a), 0.0, 0.0);
}

TEST(Dense, SolveRandomSystem) {
  const int_t n = 8;
  const nl::Matrix a = randomMatrix(n, n, 3);
  std::vector<double> xTrue(n);
  for (int_t i = 0; i < n; ++i) xTrue[i] = i + 1.0;
  std::vector<double> b(n, 0.0);
  for (int_t i = 0; i < n; ++i)
    for (int_t j = 0; j < n; ++j) b[i] += a(i, j) * xTrue[j];
  std::vector<double> x;
  ASSERT_TRUE(nl::solve(a, b, x));
  for (int_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
}

TEST(Dense, SolveSingularFails) {
  nl::Matrix a(3, 3); // all-zero
  std::vector<double> x;
  EXPECT_FALSE(nl::solve(a, {1.0, 2.0, 3.0}, x));
}

TEST(Dense, InvertRoundTrip) {
  const nl::Matrix a = randomMatrix(6, 6, 4);
  nl::Matrix inv;
  ASSERT_TRUE(nl::invert(a, inv));
  EXPECT_NEAR((a * inv).distance(nl::Matrix::identity(6)), 0.0, 1e-9);
  EXPECT_NEAR((inv * a).distance(nl::Matrix::identity(6)), 0.0, 1e-9);
}

TEST(Dense, LeastSquaresExactForSquare) {
  const nl::Matrix a = randomMatrix(5, 5, 5);
  std::vector<double> xTrue = {1.0, -2.0, 0.5, 3.0, -1.0};
  std::vector<double> b(5, 0.0);
  for (int_t i = 0; i < 5; ++i)
    for (int_t j = 0; j < 5; ++j) b[i] += a(i, j) * xTrue[j];
  std::vector<double> x;
  ASSERT_TRUE(nl::leastSquares(a, b, x));
  for (int_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
}

TEST(Dense, LeastSquaresOverdetermined) {
  // Fit a line through exact samples: residual must vanish.
  nl::Matrix a(10, 2);
  std::vector<double> b(10);
  for (int_t i = 0; i < 10; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = i;
    b[i] = 3.0 + 0.5 * i;
  }
  std::vector<double> x;
  ASSERT_TRUE(nl::leastSquares(a, b, x));
  EXPECT_NEAR(x[0], 3.0, 1e-10);
  EXPECT_NEAR(x[1], 0.5, 1e-10);
}

TEST(Csr, RoundTripPreservesMatrix) {
  const nl::Matrix a = randomMatrix(7, 9, 6, 0.6);
  const auto csr = nl::toCsr<double>(a);
  EXPECT_NEAR(nl::toDense(csr).distance(a), 0.0, 0.0);
  EXPECT_EQ(csr.nnz(), a.countNonZeros());
}

TEST(Csr, DropTolerance) {
  nl::Matrix a(2, 2);
  a(0, 0) = 1e-20;
  a(1, 1) = 1.0;
  const auto csr = nl::toCsr<double>(a, 1e-14);
  EXPECT_EQ(csr.nnz(), 1);
}

// -- fused small-GEMM kernels ------------------------------------------------

/// `starMul` over a full pattern (zeros inside it exercise the skip) and
/// over the matrix's own nonzero pattern, against a plain triple loop.
template <int W>
void checkStarAgainstReference(bool fullPattern) {
  const int_t m = 9, k = 9, nCols = 20;
  const nl::Matrix a = randomMatrix(m, k, 7, 0.5);
  std::vector<double> d(static_cast<std::size_t>(k) * nCols * W);
  std::mt19937 rng(8);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (auto& v : d) v = uni(rng);

  const nl::StarPattern p = fullPattern ? nl::densePattern(m, k) : nl::unionPattern({a});
  EXPECT_EQ(p.nnz(), fullPattern ? m * k : a.countNonZeros());
  std::vector<double> values;
  for (int_t i = 0; i < m; ++i)
    for (int_t j = p.rowPtr[i]; j < p.rowPtr[i + 1]; ++j) values.push_back(a(i, p.colIdx[j]));
  std::vector<double> out(static_cast<std::size_t>(m) * nCols * W, 0.0);
  const std::uint64_t flops =
      nl::starMul<double, W>(p, values.data(), nCols, nCols, d.data(), out.data());
  EXPECT_EQ(flops, 2ull * m * k * nCols * W);
  for (int_t i = 0; i < m; ++i)
    for (int_t n = 0; n < nCols; ++n)
      for (int_t w = 0; w < W; ++w) {
        double ref = 0.0;
        for (int_t j = 0; j < k; ++j)
          ref += a(i, j) * d[(static_cast<std::size_t>(j) * nCols + n) * W + w];
        EXPECT_NEAR(out[(static_cast<std::size_t>(i) * nCols + n) * W + w], ref, 1e-12);
      }
}

TEST(SmallGemm, StarFullPatternW1) { checkStarAgainstReference<1>(true); }
TEST(SmallGemm, StarFullPatternW8) { checkStarAgainstReference<8>(true); }
TEST(SmallGemm, StarSparsePatternW1) { checkStarAgainstReference<1>(false); }
TEST(SmallGemm, StarCsrW16) { checkStarAgainstReference<16>(true); }

template <int W>
void checkRightAgainstReference(bool useCsr, int_t kEff) {
  const int_t nVars = 9, kDim = 20, nDim = 10;
  const nl::Matrix b = randomMatrix(kDim, nDim, 9, 0.4);
  std::vector<double> d(static_cast<std::size_t>(nVars) * kDim * W);
  std::mt19937 rng(10);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (auto& v : d) v = uni(rng);

  std::vector<double> out(static_cast<std::size_t>(nVars) * nDim * W, 0.0);
  if (useCsr) {
    const auto csr = nl::toCsr<double>(b);
    nl::rightMulCsr<double, W>(nVars, kEff, csr, d.data(), out.data(), kDim, nDim);
  } else {
    std::vector<double> bd(kDim * nDim);
    for (int_t i = 0; i < kDim; ++i)
      for (int_t j = 0; j < nDim; ++j) bd[i * nDim + j] = b(i, j);
    nl::rightMulDense<double, W>(nVars, kEff, nDim, nDim, d.data(), bd.data(), out.data(), kDim,
                                 nDim);
  }
  for (int_t i = 0; i < nVars; ++i)
    for (int_t n = 0; n < nDim; ++n)
      for (int_t w = 0; w < W; ++w) {
        double ref = 0.0;
        for (int_t kk = 0; kk < kEff; ++kk)
          ref += d[(static_cast<std::size_t>(i) * kDim + kk) * W + w] * b(kk, n);
        EXPECT_NEAR(out[(static_cast<std::size_t>(i) * nDim + n) * W + w], ref, 1e-12)
            << "i=" << i << " n=" << n << " w=" << w;
      }
}

TEST(SmallGemm, RightDenseW1Full) { checkRightAgainstReference<1>(false, 20); }
TEST(SmallGemm, RightDenseW1Trimmed) { checkRightAgainstReference<1>(false, 10); }
TEST(SmallGemm, RightDenseW16) { checkRightAgainstReference<16>(false, 20); }
TEST(SmallGemm, RightCsrW1) { checkRightAgainstReference<1>(true, 20); }
TEST(SmallGemm, RightCsrW1Trimmed) { checkRightAgainstReference<1>(true, 10); }
TEST(SmallGemm, RightCsrW16) { checkRightAgainstReference<16>(true, 20); }

TEST(SmallGemm, Axpy) {
  std::vector<double> src = {1.0, 2.0, 3.0}, dst = {1.0, 1.0, 1.0};
  nl::axpyBlock(2.0, src.data(), dst.data(), 3);
  EXPECT_DOUBLE_EQ(dst[0], 3.0);
  EXPECT_DOUBLE_EQ(dst[2], 7.0);
}

TEST(SmallGemm, DenseCsrAgree) {
  // Dense (with kEff trim) and CSR must produce identical results.
  const int_t nVars = 9, kDim = 35, nDim = 35, kEff = 20;
  const nl::Matrix b = randomMatrix(kDim, nDim, 11, 0.7);
  std::vector<double> d(static_cast<std::size_t>(nVars) * kDim), o1(nVars * nDim, 0.0),
      o2(nVars * nDim, 0.0), bd(kDim * nDim);
  std::mt19937 rng(12);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (auto& v : d) v = uni(rng);
  for (int_t i = 0; i < kDim; ++i)
    for (int_t j = 0; j < nDim; ++j) bd[i * nDim + j] = b(i, j);
  nl::rightMulDense<double, 1>(nVars, kEff, nDim, nDim, d.data(), bd.data(), o1.data(), kDim,
                               nDim);
  const auto csr = nl::toCsr<double>(b);
  nl::rightMulCsr<double, 1>(nVars, kEff, csr, d.data(), o2.data(), kDim, nDim);
  for (std::size_t i = 0; i < o1.size(); ++i) EXPECT_NEAR(o1[i], o2[i], 1e-12);
}
