#pragma once
// Simulation fixtures shared by the solver suites (test_solver_lts,
// test_fused) and by test_slow, which runs their multi-second cases under
// the `slow` ctest label.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "mesh/box_gen.hpp"
#include "physics/attenuation.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/simulation.hpp"

namespace nglts::test {

/// Small two-velocity-layer box with a point source and one receiver — a
/// miniature LOH-style setting with genuine multi-cluster LTS behaviour.
template <typename Real, int W>
solver::Simulation<Real, W> makeLayeredSim(solver::TimeScheme scheme, int_t numClusters,
                                           int_t mechanisms, double lambda = 1.0, idx_t n = 5,
                                           bool sparse = false) {
  mesh::BoxSpec spec;
  spec.planes[0] = mesh::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = mesh::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = mesh::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  auto mesh = mesh::generateBox(spec);

  std::vector<physics::Material> mats(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const auto c = mesh.centroid(e);
    const double vs = c[2] > 500.0 ? 400.0 : 1600.0;
    if (mechanisms > 0)
      mats[e] = physics::viscoElasticMaterial(2600.0, vs * std::sqrt(3.0), vs, 120.0, 40.0,
                                              mechanisms, 0.6);
    else
      mats[e] = physics::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }

  solver::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = numClusters;
  cfg.lambda = lambda;
  cfg.sparseKernels = sparse;
  cfg.attenuationFreq = 0.6;
  return solver::Simulation<Real, W>(std::move(mesh), std::move(mats), cfg);
}

template <typename Real, int W>
void addStandardSourceAndReceiver(solver::Simulation<Real, W>& sim,
                                  std::vector<double> laneScale = {}) {
  // 0.6 Hz: the slow layer (vs = 400) has a ~670 m wavelength on the ~200 m
  // mesh -- resolved at order 3, so GTS and LTS must agree closely.
  auto stf = std::make_shared<seismo::RickerWavelet>(0.6, 2.0);
  sim.addPointSource(
      seismo::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf), laneScale);
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

inline std::vector<double> traceOf(const seismo::Receiver& r, double tEnd, int_t lane = 0,
                                   int_t quantity = kVelU) {
  return seismo::resample(r.traces[lane], quantity, tEnd, 400);
}

template <typename Real, int W>
solver::Simulation<Real, W> makeSmallSim(
    int_t order, int_t mechs, bool sparse,
    solver::TimeScheme scheme = solver::TimeScheme::kLtsNextGen) {
  mesh::BoxSpec spec;
  spec.planes[0] = mesh::uniformPlanes(0.0, 800.0, 4);
  spec.planes[1] = mesh::uniformPlanes(0.0, 800.0, 4);
  spec.planes[2] = mesh::uniformPlanes(-800.0, 0.0, 4);
  spec.jitter = 0.2;
  spec.freeSurfaceTop = true;
  auto mesh = mesh::generateBox(spec);
  std::vector<physics::Material> mats(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const double vs = mesh.centroid(e)[2] > -300.0 ? 500.0 : 1500.0;
    mats[e] = mechs > 0
                  ? physics::viscoElasticMaterial(2600.0, vs * 1.8, vs, 80.0, 40.0, mechs, 2.0)
                  : physics::elasticMaterial(2600.0, vs * 1.8, vs);
  }
  solver::SimConfig cfg;
  cfg.order = order;
  cfg.mechanisms = mechs;
  cfg.scheme = scheme;
  cfg.numClusters = 2;
  cfg.sparseKernels = sparse;
  cfg.attenuationFreq = 2.0;
  return solver::Simulation<Real, W>(std::move(mesh), std::move(mats), cfg);
}

/// Run a pulse and return the final-state energy-like norm of lane `lane`.
template <typename Real, int W>
std::vector<double> runPulse(solver::Simulation<Real, W>& sim, int_t lane) {
  sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
    for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
    const double r2 = (x[0] - 400.0) * (x[0] - 400.0) + (x[1] - 400.0) * (x[1] - 400.0) +
                      (x[2] + 400.0) * (x[2] + 400.0);
    q9[kVelU] = std::exp(-r2 / 22500.0);
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

/// The full LTS anelastic stack at one order (smoke-level integration
/// property: finite, nonzero, stable output).
inline void checkLtsAnelasticStable(int_t order) {
  auto sim = makeSmallSim<double, 1>(order, 3, order >= 4);
  const auto q = runPulse(sim, 0);
  double norm = 0.0;
  for (double v : q) {
    ASSERT_TRUE(std::isfinite(v));
    norm += v * v;
  }
  EXPECT_GT(norm, 0.0);
}

/// Names an order-sweep case by its index in the whole sweep (orders 2..6),
/// so a case keeps its name in whichever binary runs it.
inline std::string orderSweepName(const ::testing::TestParamInfo<int_t>& info) {
  return std::to_string(info.param - 2);
}

} // namespace nglts::test
