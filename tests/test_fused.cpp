#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "mesh/box_gen.hpp"
#include "physics/attenuation.hpp"
#include "seismo/misfit.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/simulation.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

using namespace nglts::test;

// Every lane of a fused run reproduces the W = 1 run bit for bit (same
// initial state in each lane): lanes are independent and identically
// ordered arithmetic, at every order. W = 8 runs the anelastic stack, W = 16
// the elastic one, both through the fully sparse kernels.
class FusedWidthP : public ::testing::TestWithParam<int_t> {};

template <int W>
void expectEveryLaneBitwiseW1(int_t order, int_t mechs) {
  const std::vector<double>& ref = pulseLanes<float, 1>(order, mechs, true)[0];
  const auto& lanes = pulseLanes<float, W>(order, mechs, true);
  ASSERT_FALSE(ref.empty());
  for (int lane = 0; lane < W; ++lane) {
    ASSERT_EQ(lanes[lane].size(), ref.size());
    EXPECT_EQ(std::memcmp(lanes[lane].data(), ref.data(), ref.size() * sizeof(double)), 0)
        << "W = " << W << " lane " << lane << " differs from the W = 1 run";
  }
}

TEST_P(FusedWidthP, W8FloatMatchesW1Float) { expectEveryLaneBitwiseW1<8>(GetParam(), 3); }

TEST_P(FusedWidthP, W16FloatMatchesW1Float) { expectEveryLaneBitwiseW1<16>(GetParam(), 0); }

INSTANTIATE_TEST_SUITE_P(Orders, FusedWidthP, ::testing::Values(2, 3, 4));

// Order sweep of the full LTS anelastic stack in one go (smoke-level
// integration property: finite, nonzero, stable output for all orders).
class OrderSweepP : public ::testing::TestWithParam<int_t> {};

TEST_P(OrderSweepP, LtsAnelasticStableAndNonTrivial) { checkLtsAnelasticStable(GetParam()); }

// Order 6 (case /4) runs in test_slow.
INSTANTIATE_TEST_SUITE_P(Orders, OrderSweepP, ::testing::Values(2, 3, 4, 5), orderSweepName);

// Attenuation actually dissipates: with finite Q the wavefield carries less
// energy than the elastic run of the same setup (the anelastic run is the
// order sweep's order-3 case).
TEST(FusedMisc, ViscoelasticDissipates) {
  const auto& qe = pulseLanes<double, 1>(3, 0, false)[0];
  const auto& qv = pulseLanes<double, 1>(3, 3, false)[0];
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
