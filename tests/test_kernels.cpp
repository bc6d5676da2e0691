#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/aligned.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "linalg/small_gemm_dispatch.hpp"
#include "lts/clustering.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"
#include "physics/jacobians.hpp"
#include "solver/state.hpp"

namespace nk = nglts::kernels;
namespace nl = nglts::linalg;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace ns = nglts::solver;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct KernelFixture {
  nm::TetMesh mesh;
  std::vector<nm::ElementGeometry> geo;
  std::vector<np::Material> mats;
  nk::OperatorData<double> ed;
  int_t mechs;
};

KernelFixture makeSetup(int_t mechs, bool jitterMesh = true) {
  KernelFixture s;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.periodic = {true, true, true};
  spec.jitter = jitterMesh ? 0.15 : 0.0;
  s.mesh = nm::generateBox(spec);
  s.geo = nm::computeGeometry(s.mesh);
  s.mechs = mechs;
  np::Material m = mechs > 0
                       ? np::viscoElasticMaterial(2600.0, 4.0, 2.0, 120.0, 40.0, mechs, 1.0)
                       : np::elasticMaterial(2600.0, 4.0, 2.0);
  s.mats.assign(s.mesh.numElements(), m);
  s.ed = nk::buildAllElementData<double>(s.mesh, s.geo, s.mats, mechs);
  return s;
}

} // namespace

TEST(AderKernels, ConstantStatePredictorElastic) {
  const KernelFixture s = makeSetup(0);
  nk::AderKernels<double, 1> kern(4, 0, false);
  auto scratch = kern.makeScratch();
  const std::size_t n = kern.dofsPerElement();
  std::vector<double> q(n, 0.0), ti(n, 0.0);
  // Constant state: only mode 0 of each variable.
  const int_t nb = kern.numBasis();
  for (int_t v = 0; v < 9; ++v) q[static_cast<std::size_t>(v) * nb] = v + 1.0;
  const double dt = 0.01;
  std::vector<double> b1(kern.elasticDofsPerElement()), b2(b1.size()), b3(b1.size());
  kern.timePredict(s.ed[0], q.data(), dt, ti.data(), b1.data(), b2.data(), b3.data(), false,
                   scratch);
  // For a constant state all spatial derivatives vanish: T = dt * q.
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ti[i], dt * q[i], 1e-13);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], dt * q[i], 1e-13);
    EXPECT_NEAR(b2[i], 0.5 * dt * q[i], 1e-13);
    EXPECT_NEAR(b3[i], b1[i], 0.0);
  }
}

TEST(AderKernels, B3Accumulation) {
  const KernelFixture s = makeSetup(0);
  nk::AderKernels<double, 1> kern(3, 0, false);
  auto scratch = kern.makeScratch();
  std::vector<double> q(kern.dofsPerElement(), 0.0), ti(q.size());
  const int_t nb = kern.numBasis();
  for (int_t v = 0; v < 9; ++v) q[static_cast<std::size_t>(v) * nb] = 1.0;
  std::vector<double> b1(kern.elasticDofsPerElement()), b3(b1.size());
  kern.timePredict(s.ed[0], q.data(), 0.01, ti.data(), b1.data(), nullptr, b3.data(), false,
                   scratch);
  kern.timePredict(s.ed[0], q.data(), 0.01, ti.data(), b1.data(), nullptr, b3.data(), true,
                   scratch);
  for (std::size_t i = 0; i < b1.size(); ++i) EXPECT_NEAR(b3[i], 2.0 * b1[i], 1e-14);
}

namespace {

/// One global GTS step over all elements using the kernels directly.
template <int W>
double maxUpdateForConstantState(const KernelFixture& s, int_t order, bool sparse) {
  nk::AderKernels<double, W> kern(order, s.mechs,
                                  sparse, s.mats[0].omega);
  auto scratch = kern.makeScratch();
  const idx_t K = s.mesh.numElements();
  const std::size_t n = kern.dofsPerElement();
  const int_t nb = kern.numBasis();
  nglts::aligned_vector<double> q(K * n, 0.0);
  // Constant state across the mesh (including memory variables).
  // Memory variables must be zero: a nonzero constant theta is not a steady
  // state (theta_t = -omega theta).
  for (idx_t el = 0; el < K; ++el)
    for (int_t v = 0; v < 9; ++v)
      for (int_t w = 0; w < W; ++w)
        q[el * n + (static_cast<std::size_t>(v) * nb) * W + w] = 0.5 + 0.1 * v;

  const double dt = 1e-3;
  nglts::aligned_vector<double> buf(K * kern.elasticDofsPerElement(), 0.0);
  nglts::aligned_vector<double> qNew = q;
  // Local phase: predictor (buffers = B1 only) + volume + local surface.
  for (idx_t el = 0; el < K; ++el) {
    kern.timePredict(s.ed[el], &q[el * n], dt, scratch.timeInt.data(),
                     &buf[el * kern.elasticDofsPerElement()], nullptr, nullptr, false, scratch);
    kern.volumeAndLocalSurface(s.ed[el], scratch.timeInt.data(), &qNew[el * n], scratch);
  }
  // Neighbor phase.
  for (idx_t el = 0; el < K; ++el)
    for (int_t f = 0; f < 4; ++f) {
      const auto& fi = s.mesh.faces[el][f];
      if (fi.neighbor < 0) continue;
      kern.neighborContribution(s.ed[el], f, fi.neighborFace, fi.perm,
                                &buf[fi.neighbor * kern.elasticDofsPerElement()], &qNew[el * n],
                                scratch);
    }
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) maxDiff = std::max(maxDiff, std::fabs(qNew[i] - q[i]));
  return maxDiff;
}

} // namespace

TEST(AderKernels, ConstantStatePreservedElastic) {
  const KernelFixture s = makeSetup(0);
  EXPECT_NEAR(maxUpdateForConstantState<1>(s, 3, false), 0.0, 1e-10);
}

TEST(AderKernels, ConstantStatePreservedElasticSparse) {
  const KernelFixture s = makeSetup(0);
  EXPECT_NEAR(maxUpdateForConstantState<1>(s, 3, true), 0.0, 1e-10);
}

TEST(AderKernels, ConstantStatePreservedAnelastic) {
  // With memory variables = 0 and constant elastic state, the anelastic
  // reactive terms vanish and the state is preserved.
  KernelFixture s = makeSetup(3);
  EXPECT_NEAR(maxUpdateForConstantState<1>(s, 3, false), 0.0, 1e-10);
}

TEST(AderKernels, FusedMatchesSingle) {
  const KernelFixture s = makeSetup(3);
  nk::AderKernels<double, 1> k1(3, 3, false, s.mats[0].omega);
  nk::AderKernels<double, 4> k4(3, 3, true, s.mats[0].omega);
  auto s1 = k1.makeScratch();
  auto s4 = k4.makeScratch();
  const int_t nb = k1.numBasis();
  const int_t nq = k1.numQuantities();

  std::mt19937 rng(3);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q1(k1.dofsPerElement());
  for (auto& v : q1) v = uni(rng);
  std::vector<double> q4(k4.dofsPerElement());
  for (int_t v = 0; v < nq; ++v)
    for (int_t b = 0; b < nb; ++b)
      for (int_t w = 0; w < 4; ++w)
        q4[(static_cast<std::size_t>(v) * nb + b) * 4 + w] = q1[static_cast<std::size_t>(v) * nb + b];

  const double dt = 0.01;
  std::vector<double> t1v(k1.dofsPerElement()), t4v(k4.dofsPerElement());
  std::vector<double> u1 = q1, u4 = q4;
  k1.timePredict(s.ed[0], q1.data(), dt, t1v.data(), nullptr, nullptr, nullptr, false, s1);
  k4.timePredict(s.ed[0], q4.data(), dt, t4v.data(), nullptr, nullptr, nullptr, false, s4);
  k1.volumeAndLocalSurface(s.ed[0], t1v.data(), u1.data(), s1);
  k4.volumeAndLocalSurface(s.ed[0], t4v.data(), u4.data(), s4);
  for (int_t v = 0; v < nq; ++v)
    for (int_t b = 0; b < nb; ++b) {
      const double ref = u1[static_cast<std::size_t>(v) * nb + b];
      for (int_t w = 0; w < 4; ++w)
        EXPECT_NEAR(u4[(static_cast<std::size_t>(v) * nb + b) * 4 + w], ref,
                    1e-11 * std::max(1.0, std::fabs(ref)))
            << "v=" << v << " b=" << b << " w=" << w;
    }
}

TEST(AderKernels, CompressedNeighborEquivalent) {
  const KernelFixture s = makeSetup(3);
  nk::AderKernels<double, 1> kern(4, 3, false, s.mats[0].omega);
  auto scratch = kern.makeScratch();
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> neighData(kern.elasticDofsPerElement());
  for (auto& v : neighData) v = uni(rng);

  // Pick an interior face.
  const idx_t el = 0;
  const auto& fi = s.mesh.faces[el][0];
  ASSERT_GE(fi.neighbor, 0);
  std::vector<double> qDirect(kern.dofsPerElement(), 0.0), qComp(kern.dofsPerElement(), 0.0);
  kern.neighborContribution(s.ed[el], 0, fi.neighborFace, fi.perm, neighData.data(),
                            qDirect.data(), scratch);
  // Sender-side compression: the sender is the neighbor; its own face id is
  // fi.neighborFace and the receiver permutation is fi.perm.
  std::vector<double> faceLocal(kern.faceDataSize());
  kern.compressBuffer(fi.neighborFace, fi.perm, neighData.data(), faceLocal.data());
  kern.neighborContributionFaceLocal(s.ed[el], 0, faceLocal.data(), qComp.data(), scratch);
  for (std::size_t i = 0; i < qDirect.size(); ++i)
    EXPECT_NEAR(qComp[i], qDirect[i], 1e-11 * std::max(1.0, std::fabs(qDirect[i])));
}

TEST(AderKernels, DerivStackIntegrationMatchesBuffers) {
  const KernelFixture s = makeSetup(3);
  nk::AderKernels<double, 1> kern(4, 3, false, s.mats[0].omega);
  auto scratch = kern.makeScratch();
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q(kern.dofsPerElement());
  for (auto& v : q) v = uni(rng);

  const double dt = 0.02;
  std::vector<double> ti(kern.dofsPerElement());
  std::vector<double> b1(kern.elasticDofsPerElement()), b2(b1.size());
  std::vector<double> stack(static_cast<std::size_t>(kern.order()) * b1.size());
  kern.timePredict(s.ed[0], q.data(), dt, ti.data(), b1.data(), b2.data(), nullptr, false,
                   scratch, stack.data());
  // integrate derivatives over [0, dt] -> B1; [0, dt/2] -> B2;
  // [dt/2, dt] -> B1 - B2.
  std::vector<double> out(b1.size());
  kern.integrateDerivStack(stack.data(), 0.0, dt, out.data());
  for (std::size_t i = 0; i < b1.size(); ++i) EXPECT_NEAR(out[i], b1[i], 1e-12);
  kern.integrateDerivStack(stack.data(), 0.0, dt / 2, out.data());
  for (std::size_t i = 0; i < b2.size(); ++i) EXPECT_NEAR(out[i], b2[i], 1e-12);
  kern.integrateDerivStack(stack.data(), dt / 2, dt / 2, out.data());
  for (std::size_t i = 0; i < b1.size(); ++i) EXPECT_NEAR(out[i], b1[i] - b2[i], 1e-12);
}

TEST(AderKernels, FlopCountsPositiveAndSparseSmaller) {
  const KernelFixture s = makeSetup(3);
  nk::AderKernels<double, 1> dense(4, 3, false, s.mats[0].omega);
  nk::AderKernels<double, 1> sparse(4, 3, true, s.mats[0].omega);
  auto sd = dense.makeScratch();
  auto ss = sparse.makeScratch();
  std::vector<double> q(dense.dofsPerElement(), 0.1), ti(q.size());
  std::vector<double> u = q;
  const auto fd = dense.timePredict(s.ed[0], q.data(), 0.01, ti.data(), nullptr, nullptr, nullptr,
                                    false, sd) +
                  dense.volumeAndLocalSurface(s.ed[0], ti.data(), u.data(), sd);
  std::vector<double> u2 = q;
  const auto fs = sparse.timePredict(s.ed[0], q.data(), 0.01, ti.data(), nullptr, nullptr,
                                     nullptr, false, ss) +
                  sparse.volumeAndLocalSurface(s.ed[0], ti.data(), u2.data(), ss);
  EXPECT_GT(fd, 0u);
  EXPECT_GT(fs, 0u);
  EXPECT_LT(fs, fd); // sparse kernels drop the zero operations
}

// -- compact operator blocks -------------------------------------------------

namespace {

template <typename Real>
struct OperatorFixture {
  nm::TetMesh mesh;
  std::vector<nm::ElementGeometry> geo;
  std::vector<np::Material> mats;
  nk::OperatorData<Real> ed;
};

/// A 3-mechanism box, jittered or with axis-aligned tets (whose inverse
/// Jacobians have zero entries, so the star values hold zeros inside their
/// patterns).
template <typename Real>
OperatorFixture<Real> makeOperators(bool jitter) {
  OperatorFixture<Real> f;
  nm::BoxSpec spec;
  for (int_t d = 0; d < 3; ++d) spec.planes[d] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.periodic = {true, true, true};
  spec.jitter = jitter ? 0.15 : 0.0;
  f.mesh = nm::generateBox(spec);
  f.geo = nm::computeGeometry(f.mesh);
  f.mats.assign(f.mesh.numElements(),
                np::viscoElasticMaterial(2600.0, 4.0, 2.0, 120.0, 40.0, 3, 1.0));
  f.ed = nk::buildAllElementData<Real>(f.mesh, f.geo, f.mats, 3);
  return f;
}

/// The star and coupling blocks as full row-major arrays, built the way the
/// dense layout built them: the reference the compact blocks must match.
template <typename Real>
struct DenseBlocks {
  std::array<std::array<Real, 81>, 3> starE{};
  std::array<std::array<Real, 54>, 3> starA{};
  std::vector<Real> couple;
};

/// A fixed-size physics block as a dense setup matrix.
template <int_t R, int_t C>
nl::Matrix dense(const nl::Block<R, C>& b) {
  nl::Matrix m(R, C);
  for (int_t r = 0; r < R; ++r)
    for (int_t c = 0; c < C; ++c) m(r, c) = b(r, c);
  return m;
}

template <typename Real>
void castInto(const nl::Matrix& m, Real* dst) {
  for (int_t r = 0; r < m.rows(); ++r)
    for (int_t c = 0; c < m.cols(); ++c)
      dst[static_cast<std::size_t>(r) * m.cols() + c] = static_cast<Real>(m(r, c));
}

template <typename Real>
DenseBlocks<Real> denseBlocks(const OperatorFixture<Real>& f, idx_t el, int_t mechs) {
  DenseBlocks<Real> b;
  const np::Material& mat = f.mats[el];
  for (int_t c = 0; c < 3; ++c) {
    nl::Matrix se(9, 9), sa(6, 9);
    for (int_t d = 0; d < 3; ++d) {
      const double s = f.geo[el].invJac[c][d];
      if (s == 0.0) continue;
      se = se + dense(np::elasticJacobian(mat, d)).scaled(s);
      sa = sa + dense(np::anelasticJacobian(d)).scaled(s);
    }
    castInto(se, b.starE[c].data());
    castInto(sa, b.starA[c].data());
  }
  b.couple.assign(static_cast<std::size_t>(mechs) * 54, Real(0));
  for (int_t l = 0; l < mechs && l < mat.mechanisms(); ++l)
    castInto(dense(np::couplingE(mat, l)), b.couple.data() + static_cast<std::size_t>(l) * 54);
  return b;
}

/// The dense star product the pattern kernel replaced: every entry of the
/// row-major m x k block in order, skipping zeros, with the dense count.
template <typename Real, int W>
std::uint64_t starMulDense(int_t m, int_t k, int_t nCols, int_t ld, const Real* a,
                           const Real* d, Real* o) {
  for (int_t r = 0; r < m; ++r) {
    Real* orow = o + static_cast<std::size_t>(r) * ld * W;
    for (int_t c = 0; c < k; ++c) {
      const Real av = a[r * k + c];
      if (av == Real(0)) continue;
      const Real* drow = d + static_cast<std::size_t>(c) * ld * W;
#pragma omp simd
      for (int_t j = 0; j < nCols * W; ++j) orow[j] += av * drow[j];
    }
  }
  return 2ull * m * k * nCols * W;
}

template <typename Real>
std::vector<Real> expand(const nl::StarPattern& p, const Real* values) {
  std::vector<Real> dense(static_cast<std::size_t>(p.rows) * p.cols, Real(0));
  for (int_t r = 0; r < p.rows; ++r)
    for (int_t i = p.rowPtr[r]; i < p.rowPtr[r + 1]; ++i)
      dense[static_cast<std::size_t>(r) * p.cols + p.colIdx[i]] = values[i];
  return dense;
}

template <typename Real>
bool sameBits(const Real* a, const Real* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(Real)) == 0;
}

template <typename Real>
std::vector<Real> randomReals(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<Real> v(n);
  for (auto& x : v) x = static_cast<Real>(uni(rng));
  return v;
}

/// One block of one element: the compact values, their pattern and the
/// dense reference array.
template <typename Real>
struct BlockCase {
  const nl::StarPattern* pattern;
  const Real* values;
  const Real* dense;
};

template <typename Real>
std::vector<BlockCase<Real>> blockCases(const nk::ElementData<Real>& ed,
                                        const DenseBlocks<Real>& ref, int_t mechs) {
  std::vector<BlockCase<Real>> out;
  for (int_t c = 0; c < 3; ++c) {
    out.push_back({&nk::starEPattern(), ed.elastic->starE[c].data(), ref.starE[c].data()});
    out.push_back({&nk::starAPattern(), ed.anelastic->starA[c].data(), ref.starA[c].data()});
  }
  for (int_t l = 0; l < mechs; ++l)
    out.push_back({&nk::couplePattern(), ed.couple + l * nk::kCoupleNnz,
                   ref.couple.data() + l * 54});
  return out;
}

template <typename Real>
void checkCompactBlocksExpandToDense(bool jitter) {
  const auto f = makeOperators<Real>(jitter);
  int_t zerosInPattern = 0;
  ASSERT_EQ(f.ed.anelasticBytes(),
            f.mesh.numElements() *
                (sizeof(nk::AnelasticOperators<Real>) + 3 * nk::kCoupleNnz * sizeof(Real)));
  for (idx_t el = 0; el < f.mesh.numElements(); ++el) {
    const DenseBlocks<Real> ref = denseBlocks(f, el, 3);
    for (const BlockCase<Real>& b : blockCases(f.ed[el], ref, 3)) {
      const auto dense = expand(*b.pattern, b.values);
      ASSERT_TRUE(sameBits(dense.data(), b.dense, dense.size())) << "element " << el;
      for (int_t i = 0; i < b.pattern->nnz(); ++i) zerosInPattern += b.values[i] == Real(0);
    }
  }
  // Axis-aligned tets leave zeros inside the star patterns.
  if (!jitter) EXPECT_GT(zerosInPattern, 0);
}

/// `star` against the dense reference for every block of a few elements,
/// at two column counts (full and trimmed) with padded leading dimension.
template <typename Real, int W>
void checkStarMatchesDense(nl::KernelBackend backend, bool jitter) {
  const auto f = makeOperators<Real>(jitter);
  const auto& ops = nl::smallGemmOps<Real, W>(backend);
  ASSERT_EQ(ops.backend, backend);
  const int_t ld = 23;
  unsigned seed = 1;
  for (idx_t el = 0; el < 6; ++el) {
    const DenseBlocks<Real> ref = denseBlocks(f, el, 3);
    for (const BlockCase<Real>& b : blockCases(f.ed[el], ref, 3))
      for (const int_t nCols : {int_t(20), int_t(13)}) {
        const nl::StarPattern& p = *b.pattern;
        const auto d = randomReals<Real>(static_cast<std::size_t>(p.cols) * ld * W, ++seed);
        auto want = randomReals<Real>(static_cast<std::size_t>(p.rows) * ld * W, ++seed);
        auto got = want;
        const auto fWant =
            starMulDense<Real, W>(p.rows, p.cols, nCols, ld, b.dense, d.data(), want.data());
        const auto fGot = ops.star(p, b.values, nCols, ld, d.data(), got.data());
        EXPECT_EQ(fGot, fWant) << "element " << el;
        EXPECT_TRUE(sameBits(got.data(), want.data(), got.size()))
            << "element " << el << " " << p.rows << "x" << p.cols << " nCols " << nCols;
      }
  }
}

template <typename Real, int W>
void checkStarAllBackends() {
  for (const bool jitter : {true, false}) {
    checkStarMatchesDense<Real, W>(nl::KernelBackend::kScalar, jitter);
    if (nl::vectorBackendCompiled() && nl::detectCpuSimd().any())
      checkStarMatchesDense<Real, W>(nl::KernelBackend::kVector, jitter);
  }
}

} // namespace

TEST(CompactOperators, PatternsAreTheJacobianUnions) {
  EXPECT_EQ(nk::starEPattern().nnz(), nk::kStarENnz);
  EXPECT_EQ(nk::starAPattern().nnz(), nk::kStarANnz);
  EXPECT_EQ(nk::couplePattern().nnz(), nk::kCoupleNnz);
  // The coupling blocks' velocity rows hold no entry.
  const nl::StarPattern& e = nk::couplePattern();
  for (int_t r = nglts::kVelU; r <= nglts::kVelW; ++r) EXPECT_EQ(e.rowPtr[r], e.rowPtr[r + 1]);
  for (const nl::StarPattern* p : {&nk::starEPattern(), &nk::starAPattern(), &e})
    for (int_t r = 0; r < p->rows; ++r)
      for (int_t i = p->rowPtr[r] + 1; i < p->rowPtr[r + 1]; ++i)
        EXPECT_LT(p->colIdx[i - 1], p->colIdx[i]) << "columns ascend within a row";
}

TEST(CompactOperators, ExpandToTheDenseBlocksBitwise) {
  for (const bool jitter : {true, false}) {
    SCOPED_TRACE(jitter ? "jittered" : "axis-aligned");
    checkCompactBlocksExpandToDense<double>(jitter);
    checkCompactBlocksExpandToDense<float>(jitter);
  }
}

TEST(CompactOperators, StarMatchesDenseReferenceDoubleW1) { checkStarAllBackends<double, 1>(); }
TEST(CompactOperators, StarMatchesDenseReferenceDoubleW4) { checkStarAllBackends<double, 4>(); }
TEST(CompactOperators, StarMatchesDenseReferenceDoubleW2) { checkStarAllBackends<double, 2>(); }
TEST(CompactOperators, StarMatchesDenseReferenceFloatW1) { checkStarAllBackends<float, 1>(); }
TEST(CompactOperators, StarMatchesDenseReferenceFloatW4) { checkStarAllBackends<float, 4>(); }
TEST(CompactOperators, StarMatchesDenseReferenceFloatW16) { checkStarAllBackends<float, 16>(); }

// -- operator setup failures -------------------------------------------------

namespace {

/// Sets the OpenMP team size for one scope (a no-op in serial builds).
class ScopedOmpThreads {
 public:
  explicit ScopedOmpThreads(int n) {
#ifdef _OPENMP
    prev_ = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~ScopedOmpThreads() {
#ifdef _OPENMP
    omp_set_num_threads(prev_);
#endif
  }
  ScopedOmpThreads(const ScopedOmpThreads&) = delete;
  ScopedOmpThreads& operator=(const ScopedOmpThreads&) = delete;

 private:
  int prev_ = 1;
};

template <typename Fn>
std::string errorOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

} // namespace

TEST(CompactOperators, NonFiniteOperatorNamesTheLowestFailingElement) {
  KernelFixture s = makeSetup(0);
  const idx_t bad = 13;
  s.mats[bad].rho = std::numeric_limits<double>::quiet_NaN();
  // The face neighbors' interface flux solvers read the NaN material too,
  // so the lowest failing element is the lowest of `bad` and its neighbors.
  idx_t lowest = bad;
  for (const auto& fi : s.mesh.faces[bad])
    if (fi.neighbor >= 0) lowest = std::min(lowest, fi.neighbor);
  const std::string where = "element " + std::to_string(lowest) + ": ";

  const nk::AderKernels<double, 1> kernels(3, 0, false);
  const auto clustering = nglts::lts::buildClustering(
      s.mesh, std::vector<double>(s.mesh.numElements(), 1.0), 1, 1.0);
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.scheme = ns::TimeScheme::kGts;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const ScopedOmpThreads scope(threads);
    const std::string all =
        errorOf([&] { nk::buildAllElementData<double>(s.mesh, s.geo, s.mats, 0); });
    EXPECT_NE(all.find(where), std::string::npos) << all;
    EXPECT_NE(all.find("not finite"), std::string::npos) << all;
    const std::string state = errorOf([&] {
      ns::SolverState<double, 1>(s.mesh, s.mats, s.geo, clustering, kernels, cfg);
    });
    EXPECT_EQ(state, all);
  }
}
