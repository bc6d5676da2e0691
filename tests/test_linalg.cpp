#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "linalg/block.hpp"
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

namespace {

/// A random 9x9 block and its dense twin: every fourth row empty, about a
/// third of the other entries marked, a fifth of those +0 or -0 and, with
/// `special`, some inf or NaN.
struct BlockPair {
  nl::Block<9, 9> block;
  nl::Matrix dense{9, 9};
};

BlockPair randomBlockPair(unsigned seed, bool special) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  BlockPair p;
  for (int_t i = 0; i < 9; ++i)
    for (int_t j = 0; j < 9; ++j) {
      if ((seed + i) % 4 == 0 || pick(rng) < 0.65) continue;
      const double roll = pick(rng);
      double v = uni(rng);
      if (roll < 0.1) v = 0.0;
      else if (roll < 0.2) v = -0.0;
      else if (special && roll < 0.23) v = -std::numeric_limits<double>::infinity();
      else if (special && roll < 0.26) v = std::numeric_limits<double>::quiet_NaN();
      p.block.at(i, j) = v;
      p.dense(i, j) = v;
    }
  return p;
}

/// Every entry bitwise equal, or NaN on both sides: which NaN an operation
/// on two NaNs returns depends on the operand order the compiler picks.
bool sameEntries(const nl::Block<9, 9>& b, const nl::Matrix& m) {
  for (int_t i = 0; i < 81; ++i) {
    const double x = b.data()[i], y = m.data()[i];
    if (std::memcmp(&x, &y, sizeof(double)) != 0 && !(std::isnan(x) && std::isnan(y)))
      return false;
  }
  return true;
}

} // namespace

TEST(Block, ProductsAndCombinationsMatchDenseBitwise) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (unsigned seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool special = seed % 2 == 0;
    const BlockPair a = randomBlockPair(3 * seed, special);
    const BlockPair b = randomBlockPair(3 * seed + 1, special);
    const BlockPair c = randomBlockPair(3 * seed + 2, special);
    // A chain whose middle result is a left factor again, as in Ti * G * T.
    EXPECT_TRUE(sameEntries(a.block * b.block * c.block, a.dense * b.dense * c.dense));
    // Weights with a zero, a negative zero and, with `special`, an infinity.
    const std::array<double, 3> w = {uni(rng), seed % 3 == 0 ? -0.0 : 0.0,
                                     special ? std::numeric_limits<double>::infinity()
                                             : uni(rng)};
    nl::Matrix want(9, 9);
    for (std::size_t d = 0; d < 3; ++d) {
      if (w[d] == 0.0) continue;
      want = want + std::array{a.dense, b.dense, c.dense}[d].scaled(w[d]);
    }
    const nl::Block<9, 9> got = nl::linearCombination(std::array{a.block, b.block, c.block}, w);
    EXPECT_TRUE(sameEntries(got, want));
    EXPECT_TRUE(sameEntries(got * a.block, want * a.dense));
  }
}
