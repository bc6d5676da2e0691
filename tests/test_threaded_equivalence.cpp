// The thread-parallel side of the solver that the determinism matrix
// (test_determinism, which holds every thread count to the one-thread run
// bitwise) does not reach: the numThreads validation, the static chunk map,
// and the OpenMP initial-condition projection (bitwise against a
// straightforward reference at every team size; throwing and non-finite
// callbacks).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "basis/quadrature.hpp"
#include "mesh/geometry.hpp"
#include "parallel/dist_sim.hpp"
#include "solver/threading.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
using nglts::idx_t;
using nglts::int_t;
using nglts::test::LayeredBox;
using nglts::test::layeredConfig;
using nglts::test::makeLayeredBox;

TEST(ThreadedConfig, RejectsNonPositiveThreadCounts) {
  ns::SimConfig cfg = layeredConfig(ns::TimeScheme::kGts, 3, 0);
  cfg.numThreads = 0;
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  cfg.numThreads = -2;
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  const LayeredBox f = makeLayeredBox(0, /*n=*/2);
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
  ns::SimConfig cfg = layeredConfig(ns::TimeScheme::kGts, 3, /*mechanisms=*/0);
  cfg.order = 4;
  return cfg;
}

template <typename Real, int W>
void expectProjectionMatchesReference(int threads) {
  SCOPED_TRACE("W=" + std::to_string(W) + ", " + std::to_string(threads) + " threads");
  const LayeredBox f = makeLayeredBox(/*mechanisms=*/0, 4);
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
  const LayeredBox f = makeLayeredBox(/*mechanisms=*/0, 4);
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
  const LayeredBox f = makeLayeredBox(/*mechanisms=*/0, 4);
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
  const LayeredBox f = makeLayeredBox(/*mechanisms=*/3, 4);
  const auto geo = nm::computeGeometry(f.mesh);
  ns::SimConfig cfg = projectionCfg();
  cfg.mechanisms = 3;
  ns::Simulation<Real, W> sim(f.mesh, f.mats, cfg);
  const std::size_t bytes = sim.kernels().dofsPerElement() * sizeof(Real);
  // All 9 quantities; one quantity (layeredWave sets u only); zero in some lanes.
  for (const ns::InitialConditionFn& ic :
       {ns::InitialConditionFn(narrowGaussian), ns::InitialConditionFn(nglts::test::layeredWave),
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
