// Kernel backend equivalence (docs/KERNELS.md): the explicit-SIMD vector
// backend must be *bitwise*-identical to the scalar reference for every
// dispatched kernel — the documented tolerance policy is zero — and must
// return identical analytic flop counts. Covered here:
//   * per-kernel randomized-operand exactness for every engine type of
//     NGLTS_FOR_EACH_ENGINE_TYPE x {star over a full and a sparse pattern,
//     right dense and CSR}, under every vector table the host runs
//     (`linalg::vectorKernelTables`),
//   * a W = 1 star / rightDense row-length sweep (every basis size of
//     orders 1-7 and each vector width +-1, zeros and -0.0 salted in, a
//     sentinel in the row padding) and W = 2 star rows of odd length,
//   * axpy helper exactness,
//   * flop-count parity across backends,
//   * backend resolution and the dispatched ISA's label, and
//   * AderKernels-level equivalence (full ADER predictor + updates; W = 1
//     over orders 1-7 in both precisions).
// Whole runs on the scalar reference against the dispatched backend are
// rows of the determinism matrix (test_determinism, `*_scalar`).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "linalg/small_gemm_dispatch.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"

namespace nl = nglts::linalg;
namespace nk = nglts::kernels;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
using nglts::idx_t;
using nglts::int_t;
using nl::KernelBackend;

namespace {

/// Bitwise comparison of two Real buffers (EXPECT_EQ would treat -0 == +0).
template <typename Real>
::testing::AssertionResult bitwiseEqual(const std::vector<Real>& a, const std::vector<Real>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size mismatch";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(Real)) != 0)
      return ::testing::AssertionFailure()
             << "first bitwise mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

template <typename Real>
std::vector<Real> randomVec(std::size_t n, unsigned seed, double sparsity = 0.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  std::vector<Real> v(n, Real(0));
  for (auto& x : v)
    if (pick(rng) >= sparsity) x = static_cast<Real>(uni(rng));
  return v;
}

nl::Matrix toMatrix(const std::vector<double>& v, int_t r, int_t c) {
  nl::Matrix m(r, c);
  for (int_t i = 0; i < r; ++i)
    for (int_t j = 0; j < c; ++j) m(i, j) = v[static_cast<std::size_t>(i) * c + j];
  return m;
}

#define NGLTS_REQUIRE_VECTOR_BACKEND()                                        \
  if (!nl::vectorBackendCompiled() || !nl::detectCpuSimd().any())             \
  GTEST_SKIP() << "vector backend unavailable on this build/host"

template <typename Real, int W>
using Ops = nl::SmallGemmOps<Real, W>;

/// Overwrite about a quarter of `v` with +0.0 and -0.0 (the skip tests, and
/// a sign a broadcast or a dropped skip could flip).
template <typename Real>
void saltZeros(std::vector<Real>& v, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, 7);
  for (auto& x : v) {
    const int r = pick(rng);
    if (r == 0) x = Real(0);
    if (r == 1) x = -Real(0);
  }
}

/// Padding value: columns outside a row must keep it bit for bit.
template <typename Real>
constexpr Real kSentinel = Real(-1234.5);

/// Fill the padding columns [len, ld) of every row with the sentinel.
template <typename Real>
void padRows(std::vector<Real>& v, std::size_t rows, std::size_t len, std::size_t ld) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = len; j < ld; ++j) v[r * ld + j] = kSentinel<Real>;
}

/// Whether every padding entry [len, ld) of every row still holds the
/// sentinel bit for bit.
template <typename Real>
::testing::AssertionResult paddingIntact(const std::vector<Real>& v, std::size_t rows,
                                         std::size_t len, std::size_t ld) {
  const Real s = kSentinel<Real>;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = len; j < ld; ++j)
      if (std::memcmp(&v[r * ld + j], &s, sizeof(Real)) != 0)
        return ::testing::AssertionFailure() << "padding written at row " << r << ", column " << j;
  return ::testing::AssertionSuccess();
}

/// star over nCols columns (row length nCols * W, ld = nCols + 3) under
/// both tables, with zeros and -0.0 in the operator, D and O, over a full
/// pattern (one row of zero values) and over the operator's own pattern
/// (that row empty).
template <typename Real, int W>
void expectStarAgrees(const Ops<Real, W>& scalar, const Ops<Real, W>& vector, int_t nCols,
                      unsigned seed, const std::string& label) {
  const int_t m = 9, k = 9, ld = nCols + 3;
  const std::size_t rowLen = static_cast<std::size_t>(nCols) * W, ldw = std::size_t(ld) * W;
  auto aVals = randomVec<double>(static_cast<std::size_t>(m) * k, seed, 0.3);
  saltZeros(aVals, seed + 1);
  for (int_t c = 0; c < k; ++c) aVals[4 * k + c] = 0.0;  // an empty pattern row
  const nl::Matrix a = toMatrix(aVals, m, k);
  auto d = randomVec<Real>(k * ldw, seed + 2);
  saltZeros(d, seed + 3);
  for (const nl::StarPattern& p : {nl::densePattern(m, k), nl::unionPattern({a})}) {
    std::vector<Real> values;
    for (int_t r = 0; r < m; ++r)
      for (int_t i = p.rowPtr[r]; i < p.rowPtr[r + 1]; ++i)
        values.push_back(static_cast<Real>(a(r, p.colIdx[i])));
    auto o1 = randomVec<Real>(m * ldw, seed + 4);
    saltZeros(o1, seed + 5);
    // Row 4 adds only skipped terms: -0.0 there must stay -0.0.
    for (std::size_t j = 0; j < rowLen; ++j) o1[4 * ldw + j] = -Real(0);
    padRows(o1, m, rowLen, ldw);
    auto o2 = o1;
    const auto f1 = scalar.star(p, values.data(), nCols, ld, d.data(), o1.data());
    const auto f2 = vector.star(p, values.data(), nCols, ld, d.data(), o2.data());
    EXPECT_EQ(f1, f2) << label << " star flop parity";
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << label << " star W=" << W << " nCols=" << nCols
                                      << " nnz=" << p.nnz();
    EXPECT_TRUE(paddingIntact(o2, m, rowLen, ldw)) << label << " star nCols=" << nCols;
  }
}

/// W = 1 rightDense producing nEff columns (ldb = nEff + 2, ldo = nEff + 3)
/// from a trimmed kEff, with zeros and -0.0 in D, B and O; nVars 9 and 7
/// cover the variable blocks and their remainder.
template <typename Real>
void expectRightDenseW1Agrees(const Ops<Real, 1>& scalar, const Ops<Real, 1>& vector,
                              int_t nEff, unsigned seed, const std::string& label) {
  const int_t kDim = 12, kEff = 10, ldb = nEff + 2, ldd = kDim + 1, ldo = nEff + 3;
  auto b = randomVec<Real>(static_cast<std::size_t>(kDim) * ldb, seed, 0.2);
  saltZeros(b, seed + 1);
  for (const int_t nVars : {int_t(9), int_t(7)}) {
    auto d = randomVec<Real>(static_cast<std::size_t>(nVars) * ldd, seed + 2, 0.2);
    saltZeros(d, seed + 3);
    auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo, seed + 4);
    saltZeros(o1, seed + 5);
    // Variable 0 adds only skipped terms (+0.0 and -0.0 in D): -0.0 in its
    // output row must stay -0.0.
    for (int_t kk = 0; kk < kEff; ++kk) d[kk] = kk % 2 ? Real(0) : -Real(0);
    for (int_t n = 0; n < nEff; ++n) o1[n] = -Real(0);
    padRows(o1, nVars, nEff, ldo);
    auto o2 = o1;
    const auto f1 = scalar.rightDense(nVars, kEff, nEff, ldb, d.data(), b.data(), o1.data(), ldd,
                                      ldo);
    const auto f2 = vector.rightDense(nVars, kEff, nEff, ldb, d.data(), b.data(), o2.data(), ldd,
                                      ldo);
    EXPECT_EQ(f1, f2) << label << " rightDense flop parity";
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << label << " rightDense W=1 nEff=" << nEff
                                      << " nVars=" << nVars;
    EXPECT_TRUE(paddingIntact(o2, nVars, nEff, ldo)) << label << " rightDense nEff=" << nEff;
  }
}

/// Row lengths of the W = 1 sweep: every nb, nf and trimmed degWidth of
/// orders 1-7, and VL - 1, VL, VL + 1 around each vector width from 2 lanes
/// to a 64-byte register, plus the column-block edges 4 VL and 5 VL.
template <typename Real>
std::vector<int_t> w1RowLengths() {
  std::set<int_t> lens;
  for (int_t order = 1; order <= 7; ++order) {
    lens.insert(nglts::numBasis3d(order));
    lens.insert(nglts::numBasis2d(order));
  }
  for (int_t vl = 2; vl <= int_t(64 / sizeof(Real)); vl *= 2)
    for (const int_t edge : {vl, 4 * vl, 5 * vl})
      for (const int_t len : {edge - 1, edge, edge + 1}) lens.insert(len);
  return {lens.begin(), lens.end()};
}

/// Run every dispatched kernel under both backends on randomized operands
/// (with zeros salted in to exercise the skip paths) and assert bitwise
/// output equality plus flop-count parity, for every vector table the host
/// runs. Skip (instead of fail) on the rare build/host without the vector
/// backend — the scalar reference is the only implementation there.
template <typename Real, int W>
void checkBackendsAgree(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, W>(KernelBackend::kScalar);
  ASSERT_EQ(scalar.backend, KernelBackend::kScalar);
  const auto& tables = nl::vectorKernelTables<Real, W>();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ((&nl::smallGemmOps<Real, W>(KernelBackend::kVector)), tables.front())
      << "the first listed table dispatches";
  for (const Ops<Real, W>* table : tables) {
    const Ops<Real, W>& vector = *table;
    const std::string isa = vector.isa;
    ASSERT_EQ(vector.backend, KernelBackend::kVector) << isa;

    // star: an even row and an odd one (nCols = 13), which ends in an
    // overlapped last vector.
    for (const int_t nCols : {int_t(20), int_t(13)})
      expectStarAgrees<Real, W>(scalar, vector, nCols, seed + nCols, isa);

    // right: O[nVars][nEff][W] += D[nVars][kEff][W] * B[kEff][nEff], with the
    // kEff trim and distinct leading dimensions.
    {
      const int_t nVars = 9, kDim = 20, nDim = 10, kEff = 14, ldd = 22, ldo = 13;
      const auto bDense =
          randomVec<double>(static_cast<std::size_t>(kDim) * nDim, seed + 4, 0.4);
      std::vector<Real> b(bDense.begin(), bDense.end());
      const auto d = randomVec<Real>(static_cast<std::size_t>(nVars) * ldd * W, seed + 5, 0.2);
      auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 6);
      auto o2 = o1;
      const auto f1 =
          scalar.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o1.data(), ldd, ldo);
      const auto f2 =
          vector.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o2.data(), ldd, ldo);
      EXPECT_EQ(f1, f2) << isa << " rightDense flop parity";
      EXPECT_TRUE(bitwiseEqual(o1, o2)) << isa << " rightDense W=" << W;

      const auto csr = nl::toCsr<Real>(toMatrix(bDense, kDim, nDim));
      auto c1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 7);
      auto c2 = c1;
      const auto g1 = scalar.rightCsr(nVars, kEff, csr, d.data(), c1.data(), ldd, ldo);
      const auto g2 = vector.rightCsr(nVars, kEff, csr, d.data(), c2.data(), ldd, ldo);
      EXPECT_EQ(g1, g2) << isa << " rightCsr flop parity";
      EXPECT_TRUE(bitwiseEqual(c1, c2)) << isa << " rightCsr W=" << W;
    }

    // axpy helper over an odd length (vector tails exercised).
    {
      const std::size_t n = 211;
      const auto src = randomVec<Real>(n, seed + 8);
      auto d1 = randomVec<Real>(n, seed + 9);
      auto d2 = d1;
      scalar.axpy(Real(0.37), src.data(), d1.data(), n);
      vector.axpy(Real(0.37), src.data(), d2.data(), n);
      EXPECT_TRUE(bitwiseEqual(d1, d2)) << isa << " axpy";
    }

    // W = 1 row sweep: the vector backend's own star and rightDense rows
    // (column blocks, overlapped last vectors, narrower widths).
    if constexpr (W == 1) {
      for (const int_t len : w1RowLengths<Real>()) {
        expectStarAgrees<Real, 1>(scalar, vector, len, seed + 10 + len, isa);
        expectRightDenseW1Agrees<Real>(scalar, vector, len, seed + 20 + len, isa);
      }
    }
    // W > 1 star rows that are not a whole number of vectors.
    if constexpr (W == 2)
      for (const int_t nCols : {int_t(1), int_t(3), int_t(5), int_t(13), int_t(35)})
        expectStarAgrees<Real, 2>(scalar, vector, nCols, seed + 30 + nCols, isa);
  }
}

} // namespace

// -- per-kernel exactness: {star, dense, CSR, axpy} for every engine type --

#define NGLTS_BITWISE_AGREEMENT(Real, W, ...) \
  TEST(KernelBackends, BitwiseAgreement_##Real##_W##W) { checkBackendsAgree<Real, W>(10 + W); }
NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_BITWISE_AGREEMENT)

// -- resolution ---------------------------------------------------------------

TEST(KernelBackends, ResolutionNeverReturnsAuto) {
  EXPECT_EQ(nl::resolveKernelBackend(KernelBackend::kScalar), KernelBackend::kScalar);
  const KernelBackend autoPick = nl::resolveKernelBackend(KernelBackend::kAuto);
  EXPECT_NE(autoPick, KernelBackend::kAuto);
  // On GCC/Clang builds the vector kernels are compiled in; auto must pick
  // them whenever the CPU reports any SIMD, and an explicit vector request
  // must then resolve (not fall back, not throw).
  if (nl::vectorBackendCompiled() && nl::detectCpuSimd().any()) {
    EXPECT_EQ(autoPick, KernelBackend::kVector);
    EXPECT_EQ(nl::resolveKernelBackend(KernelBackend::kVector), KernelBackend::kVector);
    // The label scenario summaries and bench artifacts record names the
    // first (widest) listed table, the one auto dispatches to. An x86-64
    // host with AVX-512F or AVX2 gets that ISA in every build: a portable
    // build through its clones, a -march build through its baseline.
    const std::string autoLabel = nl::resolvedKernelBackendLabel(KernelBackend::kAuto);
    EXPECT_EQ(autoLabel,
              "vector(" + std::string(nl::vectorKernelTables<double, 1>().front()->isa) + ")");
    const auto& simd = nl::detectCpuSimd();
    if (simd.avx512f)
      EXPECT_EQ(autoLabel, "vector(avx512f)");
    else if (simd.avx2)
      EXPECT_EQ(autoLabel, "vector(avx2)");
  }
}

TEST(KernelBackends, DetectionIsStableAndLabelled) {
  const auto& simd = nl::detectCpuSimd();
  EXPECT_EQ(&simd, &nl::detectCpuSimd());  // cached
  EXPECT_EQ(simd.any(), std::string(simd.isa) != "none");
  EXPECT_EQ(nl::resolvedKernelBackendLabel(KernelBackend::kScalar), "scalar");
}

// -- AderKernels-level equivalence ------------------------------------------

namespace {

struct BackendFixture {
  nm::TetMesh mesh;
  std::vector<nm::ElementGeometry> geo;
  std::vector<np::Material> mats;
  nk::OperatorData<double> ed;
  nk::OperatorData<float> edF;

  BackendFixture() {
    nm::BoxSpec spec;
    spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.periodic = {true, true, true};
    spec.jitter = 0.15;
    mesh = nm::generateBox(spec);
    geo = nm::computeGeometry(mesh);
    mats.assign(mesh.numElements(), np::viscoElasticMaterial(2600.0, 4.0, 2.0, 120.0, 40.0,
                                                             /*mechanisms=*/3, 1.0));
    ed = nk::buildAllElementData<double>(mesh, geo, mats, 3);
    edF = nk::buildAllElementData<float>(mesh, geo, mats, 3);
  }

  template <typename Real>
  nk::ElementData<Real> element0() const {
    if constexpr (std::is_same_v<Real, float>)
      return edF[0];
    else
      return ed[0];
  }
};

/// Full predictor + local update + neighbor update + compression under one
/// backend; returns (all outputs concatenated, total flops).
template <typename Real, int W>
std::pair<std::vector<Real>, std::uint64_t> runAderPipeline(const BackendFixture& f, int_t order,
                                                            bool sparse, KernelBackend backend) {
  nk::AderKernels<Real, W> kern(order, 3, sparse, f.mats[0].omega, backend);
  EXPECT_NE(kern.backend(), KernelBackend::kAuto);
  const nk::ElementData<Real> ed = f.element0<Real>();
  auto s = kern.makeScratch();
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<Real> q(kern.dofsPerElement());
  for (auto& v : q) v = static_cast<Real>(uni(rng));
  std::vector<Real> ti(kern.dofsPerElement(), Real(0)), b1(kern.elasticDofsPerElement()),
      b2(b1.size()), b3(b1.size(), Real(0.25)), stack(static_cast<std::size_t>(order) * b1.size()),
      neigh(b1.size()), face(kern.faceDataSize(), Real(0));
  for (auto& v : neigh) v = static_cast<Real>(uni(rng));
  std::uint64_t flops = 0;
  flops += kern.timePredict(ed, q.data(), Real(1e-3), ti.data(), b1.data(), b2.data(), b3.data(),
                            true, s, stack.data());
  flops += kern.volumeAndLocalSurface(ed, ti.data(), q.data(), s);
  const auto& fi = f.mesh.faces[0][0];
  flops += kern.neighborContribution(ed, 0, fi.neighborFace, fi.perm, neigh.data(), q.data(), s);
  flops += kern.compressBuffer(0, fi.perm, neigh.data(), face.data());
  flops += kern.neighborContributionFaceLocal(ed, 0, face.data(), q.data(), s);
  flops += kern.integrateDerivStack(stack.data(), Real(1e-4), Real(2e-4), b2.data());

  std::vector<Real> all;
  for (const auto* v : {&q, &ti, &b1, &b2, &b3, &face})
    all.insert(all.end(), v->begin(), v->end());
  return {all, flops};
}

/// W = 1 over orders 1-7 (every row length the dense image produces), both
/// images.
template <typename Real>
void expectAderW1AgreesAcrossOrders(const BackendFixture& f) {
  for (int_t order = 1; order <= 7; ++order)
    for (const bool sparse : {false, true}) {
      const auto [sOut, sFlops] =
          runAderPipeline<Real, 1>(f, order, sparse, KernelBackend::kScalar);
      const auto [vOut, vFlops] =
          runAderPipeline<Real, 1>(f, order, sparse, KernelBackend::kVector);
      EXPECT_EQ(sFlops, vFlops) << "flop parity, order=" << order << " sparse=" << sparse;
      EXPECT_TRUE(bitwiseEqual(sOut, vOut)) << "order=" << order << " sparse=" << sparse;
    }
}

} // namespace

TEST(KernelBackends, AderKernelsBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const BackendFixture f;
  expectAderW1AgreesAcrossOrders<double>(f);
  expectAderW1AgreesAcrossOrders<float>(f);
  const auto [sOut2, sFlops2] = runAderPipeline<double, 2>(f, 4, true, KernelBackend::kScalar);
  const auto [vOut2, vFlops2] = runAderPipeline<double, 2>(f, 4, true, KernelBackend::kVector);
  EXPECT_EQ(sFlops2, vFlops2);
  EXPECT_TRUE(bitwiseEqual(sOut2, vOut2));
}
