// Equivalence suite of the thread-parallel StepExecutor (ISSUE 4 tentpole):
// for every scheme {gts, lts, baseline} x thread count {1, 2, 8} x fused
// width {1, 2}, the threaded run must be *bitwise identical* to the
// single-thread run — seismograms and DOFs. The executor cuts every
// schedule op's cluster range into SimConfig::numThreads static chunks and
// each element is updated by exactly one chunk with chunk-private scratch,
// so no tolerance is needed; any drift is a chunking/workspace bug. Also
// covered: the hybrid ranks x threads distributed run vs the 1-rank
// 1-thread reference, the numThreads
// validation, and the OpenMP initial-condition projection (bitwise against
// a straightforward reference; throwing and non-finite callbacks).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "basis/quadrature.hpp"
#include "mesh/box_gen.hpp"
#include "parallel/dist_sim.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Fixture {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

/// Small two-velocity-layer box with genuine multi-cluster LTS behaviour
/// (the quickstart setting, shrunk to test size).
Fixture makeFixture(int_t mechanisms, idx_t n = 4) {
  Fixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  f.mesh = nm::generateBox(spec);
  f.mats.resize(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double vs = f.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    if (mechanisms > 0)
      f.mats[e] = np::viscoElasticMaterial(2600.0, vs * std::sqrt(3.0), vs, 120.0, 40.0,
                                           mechanisms, 0.6);
    else
      f.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return f;
}

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t mechanisms, int_t threads) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = 1.0;
  cfg.attenuationFreq = 0.6;
  cfg.numThreads = threads;
  return cfg;
}

void initWave(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 450.0) * (x[0] - 450.0) + (x[1] - 500.0) * (x[1] - 500.0) +
                    (x[2] - 500.0) * (x[2] - 500.0);
  q9[nglts::kVelU] = std::exp(-r2 / (200.0 * 200.0));
}

template <typename Sim, int W>
void addSetup(Sim& sim) {
  std::vector<double> laneScale(W);
  for (int w = 0; w < W; ++w) laneScale[w] = 1.0 + 1.5 * w; // lanes must differ
  auto stf = std::make_shared<nsei::RickerWavelet>(0.6, 0.5);
  sim.addPointSource(
      nsei::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf), laneScale);
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

template <typename SimA, typename SimB>
void expectBitwiseSeismograms(const SimA& a, const SimB& b, int_t lanes) {
  for (int_t lane = 0; lane < lanes; ++lane) {
    const nsei::Seismogram& ta = a.receiver(0).traces[lane];
    const nsei::Seismogram& tb = b.receiver(0).traces[lane];
    ASSERT_GT(ta.size(), 0u) << "reference recorded nothing";
    ASSERT_EQ(ta.size(), tb.size()) << "lane " << lane;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.times[i], tb.times[i]) << "lane " << lane << " sample " << i;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(ta.values[i][v], tb.values[i][v])
            << "lane " << lane << " sample " << i << " quantity " << v;
    }
  }
}

template <typename SimA, typename SimB>
void expectBitwiseDofs(const SimA& a, const SimB& b, idx_t numElements, std::size_t dofs) {
  for (idx_t e = 0; e < numElements; ++e) {
    const double* qa = a.dofs(e);
    const double* qb = b.dofs(e);
    for (std::size_t i = 0; i < dofs; ++i)
      ASSERT_EQ(qa[i], qb[i]) << "element " << e << " dof " << i;
  }
}

/// 1-thread reference vs `threads`-thread run of the same Simulation:
/// bitwise seismograms and DOFs.
template <int W>
void runThreadEquivalence(ns::TimeScheme scheme, int_t threads, int_t mechanisms) {
  const double tEnd = 0.2;
  Fixture f = makeFixture(mechanisms);

  ns::Simulation<double, W> ref(f.mesh, f.mats, makeCfg(scheme, mechanisms, /*threads=*/1));
  addSetup<ns::Simulation<double, W>, W>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  ns::Simulation<double, W> thr(f.mesh, f.mats, makeCfg(scheme, mechanisms, threads));
  addSetup<ns::Simulation<double, W>, W>(thr);
  thr.setInitialCondition(initWave);
  thr.run(tEnd);

  expectBitwiseSeismograms(ref, thr, W);
  expectBitwiseDofs(ref, thr, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

} // namespace

class ThreadedEquivalence
    : public ::testing::TestWithParam<std::tuple<ns::TimeScheme, int_t>> {};

TEST_P(ThreadedEquivalence, BitwiseVsSingleThread) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<1>(scheme, threads, /*mechanisms=*/0);
}

TEST_P(ThreadedEquivalence, BitwiseVsSingleThreadFusedW2) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<2>(scheme, threads, /*mechanisms=*/0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByThreads, ThreadedEquivalence,
    ::testing::Combine(::testing::Values(ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen,
                                         ns::TimeScheme::kLtsBaseline),
                       ::testing::Values<int_t>(2, 8)),
    [](const ::testing::TestParamInfo<ThreadedEquivalence::ParamType>& info) {
      const char* scheme = std::get<0>(info.param) == ns::TimeScheme::kGts ? "gts"
                           : std::get<0>(info.param) == ns::TimeScheme::kLtsNextGen
                               ? "lts"
                               : "baseline";
      return std::string(scheme) + "_x" + std::to_string(std::get<1>(info.param)) +
             "threads";
    });

TEST(ThreadedEquivalenceExtra, AnelasticBitwiseVsSingleThread) {
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 8, /*mechanisms=*/3);
}

TEST(ThreadedEquivalenceExtra, ThreadsExceedingElementsBitwise) {
  // More chunks than some cluster has elements: empty chunks must be
  // harmless (staticChunk yields empty ranges) and the result bitwise.
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 64, /*mechanisms=*/0);
}

TEST(ThreadedEquivalenceExtra, HybridRanksTimesThreadsBitwiseVs1x1) {
  // The executor's OpenMP teams nested inside ThreadComm rank threads
  // (--ranks x --threads) vs the 1-rank 1-thread shared-memory reference:
  // each op runs as its halo-boundary and interior sub-ranges, each cut
  // into 2 static chunks.
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 0, 1));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  std::vector<int_t> part(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e)
    part[e] = f.mesh.centroid(e)[0] < 500.0 ? 0 : 1;
  npar::DistConfig dcfg;
  dcfg.sim = makeCfg(ns::TimeScheme::kLtsNextGen, 0, /*threads=*/2);
  dcfg.transport = npar::Transport::kThread; // rank std::threads, each forking a 2-thread team
  npar::DistributedSimulation<double, 1> dist(f.mesh, f.mats, part, dcfg);
  ASSERT_EQ(dist.ranks(), 2);
  addSetup<npar::DistributedSimulation<double, 1>, 1>(dist);
  dist.setInitialCondition(initWave);
  dist.run(tEnd);

  expectBitwiseSeismograms(ref, dist, 1);
  expectBitwiseDofs(ref, dist, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

TEST(ThreadedConfig, RejectsNonPositiveThreadCounts) {
  ns::SimConfig cfg = makeCfg(ns::TimeScheme::kGts, 0, 0);
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  cfg.numThreads = -2;
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  Fixture f = makeFixture(0, /*n=*/2);
  EXPECT_THROW((ns::Simulation<double, 1>(f.mesh, f.mats, cfg)), std::invalid_argument);
  cfg.numThreads = 1;
  EXPECT_NO_THROW(ns::validateSimConfig(cfg));
}

TEST(ThreadedConfig, StaticChunkCoversRangeExactlyOnce) {
  // The chunk map partitions any range: concatenated chunks reproduce
  // [begin, end) in order, for teams larger and smaller than the range.
  for (idx_t n : {0, 1, 5, 64, 1000})
    for (int_t t : {1, 2, 3, 8, 64}) {
      idx_t expect = 17; // arbitrary non-zero begin
      for (int_t c = 0; c < t; ++c) {
        const ns::ChunkRange r = ns::staticChunk(17, 17 + n, t, c);
        EXPECT_EQ(r.begin, expect);
        EXPECT_LE(r.begin, r.end);
        expect = r.end;
      }
      EXPECT_EQ(expect, 17 + n);
    }
}

namespace {

/// Sets the OpenMP team size of the projection's parallel region for one
/// scope (a no-op in serial builds).
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

/// Narrow Gaussian pulse, amplitude per (lane, quantity): far from the
/// centre the f32 projection of its tail is subnormal.
void narrowGaussian(const std::array<double, 3>& x, int_t lane, double* q9) {
  const double r2 = (x[0] - 300.0) * (x[0] - 300.0) + (x[1] - 450.0) * (x[1] - 450.0) +
                    (x[2] - 600.0) * (x[2] - 600.0);
  const double g = std::exp(-r2 / (80.0 * 80.0));
  for (int_t v = 0; v < nglts::kElasticVars; ++v) q9[v] = (1.0 + 0.25 * lane - 0.1 * v) * g;
}

/// The straightforward L2 projection: the basis evaluated per element and
/// point, accumulated in (point, lane, quantity, basis) order.
template <typename Real, int W>
std::vector<Real> referenceProjection(const ns::Simulation<Real, W>& sim,
                                      const std::vector<nm::ElementGeometry>& geo, idx_t el,
                                      const ns::InitialConditionFn& f) {
  const auto& kernels = sim.kernels();
  const auto& mesh = sim.meshRef();
  const auto& tet = *kernels.globalMatrices().tet;
  const int_t nb = kernels.numBasis();
  std::vector<Real> q(kernels.dofsPerElement(), Real(0));
  const auto& v0 = mesh.vertices[mesh.elements[el][0]];
  for (const auto& qp : nglts::basis::tetQuadrature(kernels.order() + 2)) {
    std::array<double, 3> x = v0;
    for (int_t r = 0; r < 3; ++r)
      for (int_t c = 0; c < 3; ++c) x[r] += geo[el].jac[r][c] * qp.xi[c];
    const auto phi = tet.evalAll(qp.xi);
    for (int_t lane = 0; lane < W; ++lane) {
      double q9[nglts::kElasticVars];
      f(x, lane, q9);
      for (int_t v = 0; v < nglts::kElasticVars; ++v) {
        const double wv = qp.weight * q9[v];
        for (int_t b = 0; b < nb; ++b)
          q[(static_cast<std::size_t>(v) * nb + b) * W + lane] += static_cast<Real>(wv * phi[b]);
      }
    }
  }
  return q;
}

ns::SimConfig projectionCfg() {
  ns::SimConfig cfg = makeCfg(ns::TimeScheme::kGts, /*mechanisms=*/0, /*threads=*/1);
  cfg.order = 4;
  return cfg;
}

template <typename Real, int W>
void expectProjectionMatchesReference(int threads) {
  SCOPED_TRACE("W=" + std::to_string(W) + ", " + std::to_string(threads) + " threads");
  const Fixture f = makeFixture(/*mechanisms=*/0);
  const auto geo = nm::computeGeometry(f.mesh);
  ns::Simulation<Real, W> sim(f.mesh, f.mats, projectionCfg());
  {
    const ScopedOmpThreads team(threads);
    sim.setInitialCondition(narrowGaussian);
  }
  const std::size_t bytes = sim.kernels().dofsPerElement() * sizeof(Real);
  std::size_t subnormal = 0;
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const std::vector<Real> ref = referenceProjection(sim, geo, e, narrowGaussian);
    ASSERT_EQ(std::memcmp(ref.data(), sim.dofs(e), bytes), 0) << "element " << e;
    for (const Real v : ref) subnormal += std::fpclassify(v) == FP_SUBNORMAL;
  }
  if constexpr (std::is_same_v<Real, float>) {
    EXPECT_GT(subnormal, 0u) << "the f32 tail must go subnormal";
  }
}

/// Callback failing at quadrature points strictly inside `targets`.
template <typename Fail>
ns::InitialConditionFn failingInside(const nm::TetMesh& mesh,
                                     const std::vector<nm::ElementGeometry>& geo,
                                     std::vector<idx_t> targets, Fail fail) {
  return [&mesh, &geo, targets, fail](const std::array<double, 3>& x, int_t lane, double* q9) {
    narrowGaussian(x, lane, q9);
    for (const idx_t t : targets)
      if (nm::insideReference(nm::physicalToReference(mesh, geo[t], t, x), -1e-12))
        fail(lane, q9);
  };
}

template <typename Sim>
std::string projectionError(Sim& sim, const ns::InitialConditionFn& f, int threads) {
  const ScopedOmpThreads team(threads);
  try {
    sim.setInitialCondition(f);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

} // namespace

TEST(ThreadedInitialCondition, BitwiseVsReferenceProjection) {
  for (const int threads : {1, 4}) {
    expectProjectionMatchesReference<double, 1>(threads);
    expectProjectionMatchesReference<float, 1>(threads);
    expectProjectionMatchesReference<float, 16>(threads);
  }
}

TEST(ThreadedInitialCondition, ThrowingCallbackNamesLowestElement) {
  // A throw inside the OpenMP region must surface as one exception naming
  // the lowest failing element, at any team size — not std::terminate.
  const Fixture f = makeFixture(/*mechanisms=*/0);
  const auto geo = nm::computeGeometry(f.mesh);
  const idx_t n = f.mesh.numElements();
  const idx_t first = n / 2 + 3;
  const auto cb = failingInside(f.mesh, geo, {n - 1, first}, [](int_t, double*) {
    throw std::runtime_error("user callback failed");
  });
  ns::Simulation<double, 4> sim(f.mesh, f.mats, projectionCfg());
  for (const int threads : {1, 4}) {
    const std::string what = projectionError(sim, cb, threads);
    EXPECT_NE(what.find("element " + std::to_string(first) + ":"), std::string::npos) << what;
    EXPECT_NE(what.find("user callback failed"), std::string::npos) << what;
  }

  // Two ranks: the error names the global id, not the rank-local one.
  std::vector<int_t> part(n);
  for (idx_t e = 0; e < n; ++e) part[e] = f.mesh.centroid(e)[0] < 500.0 ? 0 : 1;
  ASSERT_EQ(part[n - 1], 1);
  const auto lastCb = failingInside(f.mesh, geo, {n - 1}, [](int_t, double*) {
    throw std::runtime_error("user callback failed");
  });
  npar::DistConfig dcfg;
  dcfg.sim = projectionCfg();
  npar::DistributedSimulation<double, 4> dist(f.mesh, f.mats, part, dcfg);
  const std::string what = projectionError(dist, lastCb, 4);
  EXPECT_NE(what.find("element " + std::to_string(n - 1) + ":"), std::string::npos) << what;
}

TEST(ThreadedInitialCondition, NonFiniteValueNamesElementLaneQuantity) {
  const Fixture f = makeFixture(/*mechanisms=*/0);
  const auto geo = nm::computeGeometry(f.mesh);
  const idx_t target = f.mesh.numElements() / 3;
  ns::Simulation<double, 4> sim(f.mesh, f.mats, projectionCfg());
  for (const double bad : {std::nan(""), -HUGE_VAL}) {
    const auto cb = failingInside(f.mesh, geo, {target}, [bad](int_t lane, double* q9) {
      if (lane == 2) q9[nglts::kVelU] = bad;
    });
    for (const int threads : {1, 4}) {
      const std::string what = projectionError(sim, cb, threads);
      EXPECT_NE(what.find("element " + std::to_string(target) + ":"), std::string::npos)
          << what;
      EXPECT_NE(what.find("lane 2, quantity " + std::to_string(nglts::kVelU)),
                std::string::npos)
          << what;
    }
  }
}

// -- the projection against its point-order loop -----------------------------

namespace {

/// The projection loop that evaluated and summed one quadrature point at a
/// time: zero the element, then per point the weighted callback values of
/// all lanes, and each DOF += Real(w * phi) in point order. Throws like the
/// engine on a non-finite value (without the element prefix).
template <typename Real, int W>
std::vector<Real> pointOrderProjection(const ns::Simulation<Real, W>& sim,
                                       const std::vector<nm::ElementGeometry>& geo, idx_t el,
                                       const ns::InitialConditionFn& f) {
  const auto& kernels = sim.kernels();
  const auto& mesh = sim.meshRef();
  const auto quad = nglts::basis::tetQuadrature(kernels.order() + 2);
  const auto& tet = *kernels.globalMatrices().tet;
  const int_t nb = kernels.numBasis();
  std::vector<double> phi(quad.size() * static_cast<std::size_t>(nb));
  for (std::size_t p = 0; p < quad.size(); ++p)
    for (int_t b = 0; b < nb; ++b) phi[p * nb + b] = tet.eval(b, quad[p].xi);
  std::vector<Real> q(kernels.dofsPerElement(), Real(0));
  std::array<double, nglts::kElasticVars * W> wq{};
  const auto& v0 = mesh.vertices[mesh.elements[el][0]];
  for (std::size_t p = 0; p < quad.size(); ++p) {
    std::array<double, 3> x = v0;
    for (int_t r = 0; r < 3; ++r)
      for (int_t c = 0; c < 3; ++c) x[r] += geo[el].jac[r][c] * quad[p].xi[c];
    for (int_t lane = 0; lane < W; ++lane) {
      double q9[nglts::kElasticVars];
      f(x, lane, q9);
      for (int_t v = 0; v < nglts::kElasticVars; ++v) {
        if (!std::isfinite(q9[v]))
          throw std::runtime_error("non-finite value " + std::to_string(q9[v]) + " at lane " +
                                   std::to_string(lane) + ", quantity " + std::to_string(v));
        wq[v * W + lane] = quad[p].weight * q9[v];
      }
    }
    const double* phiP = phi.data() + p * nb;
    for (int_t v = 0; v < nglts::kElasticVars; ++v)
      for (int_t b = 0; b < nb; ++b)
        for (int_t lane = 0; lane < W; ++lane)
          q[(static_cast<std::size_t>(v) * nb + b) * W + lane] +=
              static_cast<Real>(wq[v * W + lane] * phiP[b]);
  }
  return q;
}

/// Zero in the even lanes for quantities 0..4 (in every lane at W = 1),
/// the narrow pulse elsewhere.
void zeroInEvenLanes(const std::array<double, 3>& x, int_t lane, double* q9) {
  narrowGaussian(x, lane, q9);
  if (lane % 2 == 0)
    for (int_t v = 0; v < 5; ++v) q9[v] = 0.0;
}

template <typename Real, int W>
void expectProjectionMatchesPointOrder() {
  SCOPED_TRACE(std::string(std::is_same_v<Real, float> ? "f32" : "f64") +
               ", W=" + std::to_string(W));
  const Fixture f = makeFixture(/*mechanisms=*/3);
  const auto geo = nm::computeGeometry(f.mesh);
  ns::SimConfig cfg = projectionCfg();
  cfg.mechanisms = 3;
  ns::Simulation<Real, W> sim(f.mesh, f.mats, cfg);
  const std::size_t bytes = sim.kernels().dofsPerElement() * sizeof(Real);
  // All 9 quantities; one quantity (initWave sets u only); zero in some lanes.
  for (const ns::InitialConditionFn& ic :
       {ns::InitialConditionFn(narrowGaussian), ns::InitialConditionFn(initWave),
        ns::InitialConditionFn(zeroInEvenLanes)}) {
    sim.setInitialCondition(ic);
    for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
      const std::vector<Real> ref = pointOrderProjection(sim, geo, e, ic);
      ASSERT_EQ(std::memcmp(ref.data(), sim.dofs(e), bytes), 0) << "element " << e;
    }
  }

  // A non-finite value names the same element, lane and quantity.
  const idx_t target = f.mesh.numElements() / 3;
  const int_t lane = W - 1;
  const auto cb = failingInside(f.mesh, geo, {target}, [lane](int_t l, double* q9) {
    if (l == lane) q9[nglts::kVelV] = std::nan("");
  });
  std::string want = "no exception";
  for (idx_t e = 0; e < f.mesh.numElements() && want == "no exception"; ++e) {
    try {
      pointOrderProjection(sim, geo, e, cb);
    } catch (const std::runtime_error& err) {
      want = "projectInitialCondition: element " + std::to_string(e) + ": " + err.what();
    }
  }
  EXPECT_NE(want.find("element " + std::to_string(target) + ":"), std::string::npos) << want;
  EXPECT_EQ(projectionError(sim, cb, 1), want);
}

} // namespace

TEST(InitialCondition, ProjectionBitwiseEqualToPointOrderReference) {
  expectProjectionMatchesPointOrder<float, 1>();
  expectProjectionMatchesPointOrder<float, 4>();
  expectProjectionMatchesPointOrder<float, 16>();
  expectProjectionMatchesPointOrder<double, 1>();
  expectProjectionMatchesPointOrder<double, 4>();
}
