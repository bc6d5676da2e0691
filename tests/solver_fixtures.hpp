#pragma once
// Simulation fixtures shared by the solver suites (test_solver_lts,
// test_fused, test_threaded_equivalence, test_precision), by test_slow,
// which runs their multi-second cases under the `slow` ctest label, by
// the determinism matrix (test_determinism), and the one memo every suite
// keeps its reference runs in (`memoized`).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cli/scenario.hpp"
#include "mesh/box_gen.hpp"
#include "physics/attenuation.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/simulation.hpp"

namespace nglts::test {

/// The table behind `memoized`: one per (key type, value type) pair.
template <typename Key, typename Value>
std::map<Key, Value>& memoTable() {
  static std::map<Key, Value> table;
  return table;
}

/// The value `make()` returns for `key`, computed on the first call with
/// that key and kept for the rest of the test process, so every gate that
/// compares against the same reference run shares one run. `key` must name
/// the whole configuration the value depends on.
template <typename Key, typename Make>
const auto& memoized(const Key& key, Make&& make) {
  auto& table = memoTable<Key, std::invoke_result_t<Make&>>();
  auto it = table.find(key);
  if (it == table.end()) it = table.emplace(key, make()).first;
  return it->second;
}

/// Small two-velocity-layer box (vs 400 above z = 500 m, 1600 below) on
/// [0, 1000]^3, jittered, free surface on top — a miniature LOH-style
/// setting with genuine multi-cluster LTS behaviour.
struct LayeredBox {
  mesh::TetMesh mesh;
  std::vector<physics::Material> mats;
};

inline LayeredBox makeLayeredBox(int_t mechanisms, idx_t n) {
  mesh::BoxSpec spec;
  for (auto& planes : spec.planes) planes = mesh::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  LayeredBox box{mesh::generateBox(spec), {}};
  box.mats.resize(box.mesh.numElements());
  for (idx_t e = 0; e < box.mesh.numElements(); ++e) {
    const double vs = box.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    box.mats[e] = mechanisms > 0 ? physics::viscoElasticMaterial(2600.0, vs * std::sqrt(3.0), vs,
                                                                 120.0, 40.0, mechanisms, 0.6)
                                 : physics::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return box;
}

/// Order 3, `numClusters` rate-2 clusters at `lambda`, the box's 0.6 Hz
/// attenuation band.
inline solver::SimConfig layeredConfig(solver::TimeScheme scheme, int_t numClusters,
                                       int_t mechanisms, double lambda = 1.0,
                                       bool sparse = false) {
  solver::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = numClusters;
  cfg.lambda = lambda;
  cfg.sparseKernels = sparse;
  cfg.attenuationFreq = 0.6;
  return cfg;
}

template <typename Real, int W>
solver::Simulation<Real, W> makeLayeredSim(solver::TimeScheme scheme, int_t numClusters,
                                           int_t mechanisms, double lambda = 1.0, idx_t n = 5,
                                           bool sparse = false) {
  LayeredBox box = makeLayeredBox(mechanisms, n);
  return solver::Simulation<Real, W>(std::move(box.mesh), std::move(box.mats),
                                     layeredConfig(scheme, numClusters, mechanisms, lambda,
                                                   sparse));
}

/// Gaussian pulse in u, centred in the box (sigma 200 m).
inline void layeredWave(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 450.0) * (x[0] - 450.0) + (x[1] - 500.0) * (x[1] - 500.0) +
                    (x[2] - 500.0) * (x[2] - 500.0);
  q9[kVelU] = std::exp(-r2 / (200.0 * 200.0));
}

/// A 0.6 Hz Ricker double couple delayed by `delay` seconds and one
/// receiver near the surface.
template <typename Real, int W>
void addStandardSourceAndReceiver(solver::Simulation<Real, W>& sim,
                                  std::vector<double> laneScale = {}, double delay = 2.0) {
  // 0.6 Hz: the slow layer (vs = 400) has a ~670 m wavelength on the ~200 m
  // mesh -- resolved at order 3, so GTS and LTS must agree closely.
  auto stf = std::make_shared<seismo::RickerWavelet>(0.6, delay);
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

/// Every lane's final state after the Gaussian pulse run of
/// `makeSmallSim<Real, W>(order, mechs, sparse)` to t = 0.25 s: lane `w`
/// holds all element DOFs in element, quantity, basis order. Run once per
/// configuration and process.
template <typename Real, int W>
const std::vector<std::vector<double>>& pulseLanes(int_t order, int_t mechs, bool sparse) {
  const auto key = std::make_tuple(sizeof(Real), W, order, mechs, sparse);
  return memoized(key, [&] {
    auto sim = makeSmallSim<Real, W>(order, mechs, sparse);
    sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
      for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
      const double r2 = (x[0] - 400.0) * (x[0] - 400.0) + (x[1] - 400.0) * (x[1] - 400.0) +
                        (x[2] + 400.0) * (x[2] + 400.0);
      q9[kVelU] = std::exp(-r2 / 22500.0);
    });
    sim.run(0.25);
    std::vector<std::vector<double>> lanes(W);
    const int_t nb = sim.kernels().numBasis();
    for (idx_t e = 0; e < sim.meshRef().numElements(); ++e) {
      const Real* q = sim.dofs(e);
      for (int_t v = 0; v < 9; ++v)
        for (int_t b = 0; b < nb; ++b)
          for (int w = 0; w < W; ++w)
            lanes[w].push_back(
                static_cast<double>(q[(static_cast<std::size_t>(v) * nb + b) * W + w]));
    }
    return lanes;
  });
}

/// The full LTS anelastic stack at one order (smoke-level integration
/// property: finite, nonzero, stable output).
inline void checkLtsAnelasticStable(int_t order) {
  double norm = 0.0;
  for (double v : pulseLanes<double, 1>(order, 3, order >= 4)[0]) {
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

/// The x-velocity column of a committed golden seismogram fixture
/// (tests/golden/*.csv: a header line, then `time,vx` rows); empty when the
/// file is missing.
inline std::vector<double> readGoldenTrace(const std::string& path) {
  std::ifstream in(path);
  std::vector<double> vx;
  if (!in) return vx;
  std::string line;
  std::getline(in, line); // header
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    vx.push_back(std::stod(line.substr(comma + 1)));
  }
  return vx;
}

/// The exact quickstart options the golden fixtures were generated with
/// (regeneration commands in test_solver_lts.cpp), at `precision`.
inline cli::ScenarioOptions goldenQuickstartOptions(
    solver::TimeScheme scheme, solver::Precision precision = solver::Precision::kF64) {
  cli::ScenarioOptions opts;
  opts.order = 3;
  opts.scheme = scheme;
  opts.meshScale = 0.4;
  opts.endTime = 0.8;
  opts.lambda = 0.9;
  opts.quiet = true;
  opts.precision = precision;
  return opts;
}

} // namespace nglts::test
