// Kernel backend equivalence (docs/KERNELS.md): the explicit-SIMD vector
// backend must be *bitwise*-identical to the scalar reference for every
// dispatched kernel — the documented tolerance policy is zero — and must
// return identical analytic flop counts. Covered here:
//   * per-kernel randomized-operand exactness for {W = 1, 2, 4} x
//     {star over a full and a sparse pattern, right dense and CSR}
//     (double and float),
//   * axpy helper exactness,
//   * flop-count parity across backends,
//   * backend registry / resolution / parsing behavior,
//   * AderKernels-level equivalence (full ADER predictor + updates), and
//   * end-to-end quickstart (dense image) and fused x8 (f32, sparse CSR
//     image) runs per forced backend with a bitwise seismogram comparison.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "cli/scenario.hpp"
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

/// Run every dispatched kernel under both backends on randomized operands
/// (with zeros salted in to exercise the skip paths) and assert bitwise
/// output equality plus flop-count parity.
/// Skip (instead of fail) on the rare build/host without the vector
/// backend — the scalar reference is the only implementation there.
#define NGLTS_REQUIRE_VECTOR_BACKEND()                                        \
  if (!nl::vectorBackendCompiled() || !nl::detectCpuSimd().any())             \
  GTEST_SKIP() << "vector backend unavailable on this build/host"

template <typename Real, int W>
void checkBackendsAgree(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, W>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, W>(KernelBackend::kVector);
  ASSERT_EQ(scalar.backend, KernelBackend::kScalar);
  ASSERT_EQ(vector.backend, KernelBackend::kVector);

  // star: O[m][nCols][W] += A[m][k] * D[k][nCols][W], ld > nCols (padding),
  // over a full pattern (zero values inside it) and the operator's own
  // nonzero pattern. Both an even shape and an odd one (nCols = 13): the
  // odd rows end in partial-vector tails, where a contraction asymmetry
  // between the backends' codegen would surface (the single-lane-tail rule
  // of small_gemm_vector.hpp exists because of exactly this).
  for (const int_t nCols : {int_t(20), int_t(13)}) {
    const int_t m = 9, k = 9, ld = nCols + 4;
    const nl::Matrix a =
        toMatrix(randomVec<double>(static_cast<std::size_t>(m) * k, seed, 0.5), m, k);
    const auto d = randomVec<Real>(static_cast<std::size_t>(k) * ld * W, seed + 1);
    for (const nl::StarPattern& p : {nl::densePattern(m, k), nl::unionPattern({a})}) {
      std::vector<Real> values;
      for (int_t r = 0; r < m; ++r)
        for (int_t i = p.rowPtr[r]; i < p.rowPtr[r + 1]; ++i)
          values.push_back(static_cast<Real>(a(r, p.colIdx[i])));
      auto o1 = randomVec<Real>(static_cast<std::size_t>(m) * ld * W, seed + 2);
      auto o2 = o1;  // accumulate onto identical nonzero outputs
      const auto f1 = scalar.star(p, values.data(), nCols, ld, d.data(), o1.data());
      const auto f2 = vector.star(p, values.data(), nCols, ld, d.data(), o2.data());
      EXPECT_EQ(f1, f2) << "star flop parity";
      EXPECT_TRUE(bitwiseEqual(o1, o2)) << "star W=" << W << " nnz=" << p.nnz();
    }
  }

  // right: O[nVars][nEff][W] += D[nVars][kEff][W] * B[kEff][nEff], with the
  // kEff trim and distinct leading dimensions.
  {
    const int_t nVars = 9, kDim = 20, nDim = 10, kEff = 14, ldd = 22, ldo = 13;
    const auto bDense = randomVec<double>(static_cast<std::size_t>(kDim) * nDim, seed + 4, 0.4);
    std::vector<Real> b(bDense.begin(), bDense.end());
    const auto d = randomVec<Real>(static_cast<std::size_t>(nVars) * ldd * W, seed + 5, 0.2);
    auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 6);
    auto o2 = o1;
    const auto f1 =
        scalar.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o1.data(), ldd, ldo);
    const auto f2 =
        vector.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o2.data(), ldd, ldo);
    EXPECT_EQ(f1, f2) << "rightDense flop parity";
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << "rightDense W=" << W;

    const auto csr = nl::toCsr<Real>(toMatrix(bDense, kDim, nDim));
    auto c1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 7);
    auto c2 = c1;
    const auto g1 = scalar.rightCsr(nVars, kEff, csr, d.data(), c1.data(), ldd, ldo);
    const auto g2 = vector.rightCsr(nVars, kEff, csr, d.data(), c2.data(), ldd, ldo);
    EXPECT_EQ(g1, g2) << "rightCsr flop parity";
    EXPECT_TRUE(bitwiseEqual(c1, c2)) << "rightCsr W=" << W;
  }

  // axpy helper over an odd length (vector tails exercised).
  {
    const std::size_t n = 211;
    const auto src = randomVec<Real>(n, seed + 8);
    auto d1 = randomVec<Real>(n, seed + 9);
    auto d2 = d1;
    scalar.axpy(Real(0.37), src.data(), d1.data(), n);
    vector.axpy(Real(0.37), src.data(), d2.data(), n);
    EXPECT_TRUE(bitwiseEqual(d1, d2)) << "axpy";
  }
}

} // namespace

// -- per-kernel exactness: {W=1,2,4} x {star, dense, CSR}, double and float --

TEST(KernelBackends, BitwiseAgreementDoubleW1) { checkBackendsAgree<double, 1>(11); }
TEST(KernelBackends, BitwiseAgreementDoubleW2) { checkBackendsAgree<double, 2>(12); }
TEST(KernelBackends, BitwiseAgreementDoubleW4) { checkBackendsAgree<double, 4>(13); }
TEST(KernelBackends, BitwiseAgreementFloatW1) { checkBackendsAgree<float, 1>(14); }
TEST(KernelBackends, BitwiseAgreementFloatW4) { checkBackendsAgree<float, 4>(15); }
TEST(KernelBackends, BitwiseAgreementFloatW8) { checkBackendsAgree<float, 8>(16); }
TEST(KernelBackends, BitwiseAgreementFloatW16) { checkBackendsAgree<float, 16>(17); }

// -- registry / resolution / parsing ----------------------------------------

TEST(KernelBackends, RegistryListsScalarAndVector) {
  const auto& reg = nl::kernelBackendRegistry();
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg[0].id, KernelBackend::kScalar);
  EXPECT_STREQ(reg[0].name, "scalar");
  EXPECT_TRUE(reg[0].available);  // the reference backend always exists
  EXPECT_EQ(reg[1].id, KernelBackend::kVector);
  EXPECT_STREQ(reg[1].name, "vector");
  for (const auto& info : reg) EXPECT_FALSE(std::string(info.description).empty());
}

TEST(KernelBackends, ParseRoundTrips) {
  EXPECT_EQ(nl::parseKernelBackend("auto"), KernelBackend::kAuto);
  EXPECT_EQ(nl::parseKernelBackend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(nl::parseKernelBackend("vector"), KernelBackend::kVector);
  EXPECT_THROW(nl::parseKernelBackend("avx512"), std::invalid_argument);
  EXPECT_THROW(nl::parseKernelBackend(""), std::invalid_argument);
  // The removed opt-in backend is rejected loudly, naming what is accepted.
  try {
    nl::parseKernelBackend("specialized");
    ADD_FAILURE() << "'specialized' must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("auto | scalar | vector)"), std::string::npos)
        << e.what();
  }
  for (auto b : {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kVector})
    EXPECT_EQ(nl::parseKernelBackend(nl::kernelBackendName(b)), b);
}

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
    EXPECT_EQ(nl::resolvedKernelBackendLabel(KernelBackend::kVector).rfind("vector(", 0), 0u);
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
  std::vector<nk::ElementData<double>> ed;

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
  }
};

/// Full predictor + local update + neighbor update + compression under one
/// backend; returns (all outputs concatenated, total flops).
template <int W>
std::pair<std::vector<double>, std::uint64_t> runAderPipeline(const BackendFixture& f,
                                                              bool sparse,
                                                              KernelBackend backend) {
  nk::AderKernels<double, W> kern(4, 3, sparse, f.mats[0].omega, backend);
  EXPECT_NE(kern.backend(), KernelBackend::kAuto);
  auto s = kern.makeScratch();
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q(kern.dofsPerElement());
  for (auto& v : q) v = uni(rng);
  std::vector<double> ti(kern.dofsPerElement(), 0.0), b1(kern.elasticDofsPerElement()),
      b2(b1.size()), b3(b1.size(), 0.25), stack(4 * b1.size()),
      neigh(b1.size()), face(kern.faceDataSize(), 0.0);
  for (auto& v : neigh) v = uni(rng);
  std::uint64_t flops = 0;
  flops += kern.timePredict(f.ed[0], q.data(), 1e-3, ti.data(), b1.data(), b2.data(), b3.data(),
                            true, s, stack.data());
  flops += kern.volumeAndLocalSurface(f.ed[0], ti.data(), q.data(), s);
  const auto& fi = f.mesh.faces[0][0];
  flops += kern.neighborContribution(f.ed[0], 0, fi.neighborFace, fi.perm, neigh.data(),
                                     q.data(), s);
  flops += kern.compressBuffer(0, fi.perm, neigh.data(), face.data());
  flops += kern.neighborContributionFaceLocal(f.ed[0], 0, face.data(), q.data(), s);
  flops += kern.integrateDerivStack(stack.data(), 1e-4, 2e-4, b2.data());
  kern.evalTaylorElastic(stack.data(), 5e-4, b1.data());

  std::vector<double> all;
  for (const auto* v : {&q, &ti, &b1, &b2, &b3, &face})
    all.insert(all.end(), v->begin(), v->end());
  return {all, flops};
}

} // namespace

TEST(KernelBackends, AderKernelsBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const BackendFixture f;
  for (const bool sparse : {false, true}) {
    const auto [sOut, sFlops] = runAderPipeline<1>(f, sparse, KernelBackend::kScalar);
    const auto [vOut, vFlops] = runAderPipeline<1>(f, sparse, KernelBackend::kVector);
    EXPECT_EQ(sFlops, vFlops) << "flop parity, sparse=" << sparse;
    EXPECT_TRUE(bitwiseEqual(sOut, vOut)) << "sparse=" << sparse;
  }
  const auto [sOut2, sFlops2] = runAderPipeline<2>(f, true, KernelBackend::kScalar);
  const auto [vOut2, vFlops2] = runAderPipeline<2>(f, true, KernelBackend::kVector);
  EXPECT_EQ(sFlops2, vFlops2);
  EXPECT_TRUE(bitwiseEqual(sOut2, vOut2));
}

// -- end-to-end: seismogram per forced backend -----------------------------

namespace {

/// Run `scenario` under each forced backend (scalar reference, vector,
/// auto): the seismogram must agree to the bit, and the analytic work
/// counters (flops, element updates) must not depend on the backend.
void expectScenarioBitwiseAcrossBackends(const std::string& scenario,
                                         nglts::cli::ScenarioOptions opts) {
  nglts::cli::registerBuiltinScenarios();
  const auto* s = nglts::cli::ScenarioRegistry::instance().find(scenario);
  ASSERT_NE(s, nullptr);
  opts.quiet = true;
  auto runWith = [&](KernelBackend b) {
    opts.kernelBackend = b;
    return s->run(opts);
  };
  const auto scalarRun = runWith(KernelBackend::kScalar);
  ASSERT_FALSE(scalarRun.trace.empty()) << scenario;
  ASSERT_GT(scalarRun.stats.elementUpdates, 0u) << scenario;
  bool signal = false;
  for (double v : scalarRun.trace) signal = signal || v != 0.0;
  ASSERT_TRUE(signal) << scenario << ": trace carries no signal";
  for (const KernelBackend b : {KernelBackend::kVector, KernelBackend::kAuto}) {
    const auto run = runWith(b);
    const std::string label = scenario + " --kernel " + nl::kernelBackendName(b);
    EXPECT_EQ(scalarRun.stats.flops, run.stats.flops) << label << ": flop parity";
    EXPECT_EQ(scalarRun.stats.elementUpdates, run.stats.elementUpdates) << label;
    EXPECT_TRUE(bitwiseEqual(scalarRun.trace, run.trace)) << label;
    // The summary records which backend produced the run (CI greps it).
    if (b == KernelBackend::kVector)
      EXPECT_NE(run.summary.find("kernel backend: vector"), std::string::npos) << run.summary;
  }
  EXPECT_NE(scalarRun.summary.find("kernel backend: scalar"), std::string::npos)
      << scalarRun.summary;
}

} // namespace

TEST(KernelBackends, QuickstartSeismogramBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  nglts::cli::ScenarioOptions opts;
  opts.meshScale = 0.4;
  opts.order = 3;
  opts.endTime = 0.3;
  expectScenarioBitwiseAcrossBackends("quickstart", opts);
}

/// The fused ensemble runs the fully sparse CSR image at W = 8 in f32 —
/// the kernel path of the fused benchmark workload, which the dense
/// quickstart image never touches.
TEST(KernelBackends, FusedSparseSeismogramBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  nglts::cli::ScenarioOptions opts;
  opts.fusedWidth = 8;
  opts.precision = nglts::solver::Precision::kF32;
  opts.meshScale = 0.35;
  opts.endTime = 0.3;
  expectScenarioBitwiseAcrossBackends("fused", opts);
}
