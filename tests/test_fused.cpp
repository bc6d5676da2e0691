#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mesh/box_gen.hpp"
#include "physics/attenuation.hpp"
#include "seismo/misfit.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/simulation.hpp"

namespace ns = nglts::solver;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

template <typename Real, int W>
ns::Simulation<Real, W> makeSmallSim(int_t order, int_t mechs, bool sparse,
                                     ns::TimeScheme scheme = ns::TimeScheme::kLtsNextGen) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 800.0, 4);
  spec.planes[1] = nm::uniformPlanes(0.0, 800.0, 4);
  spec.planes[2] = nm::uniformPlanes(-800.0, 0.0, 4);
  spec.jitter = 0.2;
  spec.freeSurfaceTop = true;
  auto mesh = nm::generateBox(spec);
  std::vector<np::Material> mats(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const double vs = mesh.centroid(e)[2] > -300.0 ? 500.0 : 1500.0;
    mats[e] = mechs > 0 ? np::viscoElasticMaterial(2600.0, vs * 1.8, vs, 80.0, 40.0, mechs, 2.0)
                        : np::elasticMaterial(2600.0, vs * 1.8, vs);
  }
  ns::SimConfig cfg;
  cfg.order = order;
  cfg.mechanisms = mechs;
  cfg.scheme = scheme;
  cfg.numClusters = 2;
  cfg.sparseKernels = sparse;
  cfg.attenuationFreq = 2.0;
  return ns::Simulation<Real, W>(std::move(mesh), std::move(mats), cfg);
}

/// Run a pulse and return the final-state energy-like norm of lane `lane`.
template <typename Real, int W>
std::vector<double> runPulse(ns::Simulation<Real, W>& sim, int_t lane) {
  sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
    for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
    const double r2 = (x[0] - 400.0) * (x[0] - 400.0) + (x[1] - 400.0) * (x[1] - 400.0) +
                      (x[2] + 400.0) * (x[2] + 400.0);
    q9[nglts::kVelU] = std::exp(-r2 / 22500.0);
  });
  sim.run(0.25);
  std::vector<double> out;
  const int_t nb = sim.kernels().numBasis();
  for (idx_t e = 0; e < sim.meshRef().numElements(); ++e) {
    const Real* q = sim.dofs(e);
    for (int_t v = 0; v < 9; ++v)
      for (int_t b = 0; b < nb; ++b)
        out.push_back(static_cast<double>(q[(static_cast<std::size_t>(v) * nb + b) * W + lane]));
  }
  return out;
}

} // namespace

// Parameterized over order: every fused width must replicate the W=1 result
// across orders (same initial state in each lane).
class FusedWidthP : public ::testing::TestWithParam<int_t> {};

TEST_P(FusedWidthP, W8FloatMatchesW1Float) {
  const int_t order = GetParam();
  auto s1 = makeSmallSim<float, 1>(order, 3, true);
  auto s8 = makeSmallSim<float, 8>(order, 3, true);
  const auto a = runPulse(s1, 0);
  const auto b3 = runPulse(s8, 3);
  ASSERT_EQ(a.size(), b3.size());
  double ref = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ref = std::max(ref, std::fabs(a[i]));
    diff = std::max(diff, std::fabs(a[i] - b3[i]));
  }
  ASSERT_GT(ref, 0.0);
  EXPECT_LT(diff, 1e-6 * ref); // identical math, different vector layout
}

TEST_P(FusedWidthP, W16LanesIdentical) {
  const int_t order = GetParam();
  auto sim = makeSmallSim<float, 16>(order, 0, true);
  const auto l0 = runPulse(sim, 0);
  // Compare every lane against lane 0 without re-running.
  const int_t nb = sim.kernels().numBasis();
  for (int_t lane : {1, 7, 15}) {
    std::size_t i = 0;
    for (idx_t e = 0; e < sim.meshRef().numElements(); ++e) {
      const float* q = sim.dofs(e);
      for (int_t v = 0; v < 9; ++v)
        for (int_t b = 0; b < nb; ++b, ++i)
          ASSERT_EQ(q[(static_cast<std::size_t>(v) * nb + b) * 16 + lane],
                    static_cast<float>(l0[i]))
              << "lane " << lane;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, FusedWidthP, ::testing::Values(2, 3, 4));

// Order sweep of the full LTS anelastic stack in one go (smoke-level
// integration property: finite, nonzero, stable output for all orders).
class OrderSweepP : public ::testing::TestWithParam<int_t> {};

TEST_P(OrderSweepP, LtsAnelasticStableAndNonTrivial) {
  const int_t order = GetParam();
  auto sim = makeSmallSim<double, 1>(order, 3, order >= 4);
  const auto q = runPulse(sim, 0);
  double norm = 0.0;
  for (double v : q) {
    ASSERT_TRUE(std::isfinite(v));
    norm += v * v;
  }
  EXPECT_GT(norm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderSweepP, ::testing::Values(2, 3, 4, 5, 6));

// Attenuation actually dissipates: with finite Q the wavefield carries less
// energy than the elastic run of the same setup.
TEST(FusedMisc, ViscoelasticDissipates) {
  auto elastic = makeSmallSim<double, 1>(3, 0, false);
  auto visco = makeSmallSim<double, 1>(3, 3, false);
  const auto qe = runPulse(elastic, 0);
  const auto qv = runPulse(visco, 0);
  double ee = 0.0, ev = 0.0;
  for (double v : qe) ee += v * v;
  for (double v : qv) ev += v * v;
  EXPECT_LT(ev, ee);
  EXPECT_GT(ev, 0.05 * ee); // but not absurdly damped
}

// Failure injection: misconfigurations must throw, not corrupt.
TEST(FusedMisc, InvalidConfigurationsThrow) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 2);
  spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 2);
  spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 2);
  auto mesh = nm::generateBox(spec);
  std::vector<np::Material> mats(mesh.numElements(), np::elasticMaterial(1000, 2, 1));

  {
    // Wrong material count.
    ns::SimConfig cfg;
    auto badMats = mats;
    badMats.pop_back();
    EXPECT_THROW((ns::Simulation<double, 1>(mesh, badMats, cfg)), std::runtime_error);
  }
  {
    // Anelastic run with purely elastic materials.
    ns::SimConfig cfg;
    cfg.mechanisms = 3;
    EXPECT_THROW((ns::Simulation<double, 1>(mesh, mats, cfg)), std::runtime_error);
  }
  {
    // Source outside the mesh / bad lane-scale length.
    ns::SimConfig cfg;
    ns::Simulation<double, 1> sim(mesh, mats, cfg);
    auto stf = std::make_shared<nsei::GaussianPulse>(0.1, 0.0);
    EXPECT_THROW(sim.addPointSource(nsei::forceSource({5.0, 5.0, 5.0}, {1, 0, 0}, stf)),
                 std::runtime_error);
    EXPECT_THROW(
        sim.addPointSource(nsei::forceSource({0.5, 0.5, 0.5}, {1, 0, 0}, stf), {1.0, 2.0}),
        std::invalid_argument);
    // Receiver outside reports -1 instead of throwing.
    EXPECT_EQ(sim.addReceiver({9.0, 9.0, 9.0}), -1);
    // Receiver, DOF and sample access is bounds-checked.
    EXPECT_THROW(sim.receiver(0), std::out_of_range);
    EXPECT_THROW(sim.receiver(-1), std::out_of_range);
    const idx_t n = mesh.numElements();
    EXPECT_THROW(sim.dofs(n), std::out_of_range);
    EXPECT_THROW(sim.dofs(-1), std::out_of_range);
    EXPECT_THROW(sim.sample(n, {0.25, 0.25, 0.25}), std::out_of_range);
    EXPECT_THROW(sim.sample(0, {0.25, 0.25, 0.25}, 1), std::out_of_range);
    EXPECT_THROW(sim.sample(0, {0.25, 0.25, 0.25}, -1), std::out_of_range);
    EXPECT_NO_THROW(sim.sample(n - 1, {0.25, 0.25, 0.25}));
  }
  {
    // Mesh without connectivity.
    nm::TetMesh raw = mesh;
    raw.faces.clear();
    ns::SimConfig cfg;
    EXPECT_THROW((ns::Simulation<double, 1>(raw, mats, cfg)), std::runtime_error);
  }
}
