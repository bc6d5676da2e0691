#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "mesh/box_gen.hpp"
#include "seismo/misfit.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "seismo/velocity_model.hpp"

namespace nsei = nglts::seismo;
namespace nm = nglts::mesh;
using nglts::idx_t;
using nglts::int_t;

TEST(SourceTimeFunctions, RickerIntegralMatchesQuadrature) {
  nsei::RickerWavelet stf(2.0, 1.0, 3.0);
  // Numeric integral via fine trapezoid.
  const double t0 = 0.2, t1 = 1.7;
  const int n = 20000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) {
    const double a = t0 + (t1 - t0) * i / n, b = t0 + (t1 - t0) * (i + 1) / n;
    s += 0.5 * (stf.value(a) + stf.value(b)) * (b - a);
  }
  EXPECT_NEAR(stf.integral(t0, t1), s, 1e-8);
}

TEST(SourceTimeFunctions, RickerTotalIntegralVanishes) {
  // The Ricker wavelet is zero-mean.
  nsei::RickerWavelet stf(5.0, 2.0);
  EXPECT_NEAR(stf.integral(-100.0, 100.0), 0.0, 1e-12);
}

TEST(SourceTimeFunctions, GaussianIntegral) {
  nsei::GaussianPulse stf(0.3, 1.0, 2.0);
  // Full integral = amp * sigma * sqrt(2 pi).
  EXPECT_NEAR(stf.integral(-50.0, 50.0), 2.0 * 0.3 * std::sqrt(2.0 * M_PI), 1e-10);
  EXPECT_NEAR(stf.value(1.0), 2.0, 1e-14);
}

TEST(SourceTimeFunctions, BruneProperties) {
  nsei::BrunePulse stf(0.1, 1.0);
  EXPECT_DOUBLE_EQ(stf.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(stf.integral(-5.0, 0.0), 0.0);
  // Total released moment -> amplitude.
  EXPECT_NEAR(stf.integral(0.0, 100.0), 1.0, 1e-10);
  // Additivity.
  EXPECT_NEAR(stf.integral(0.0, 0.05) + stf.integral(0.05, 0.3), stf.integral(0.0, 0.3), 1e-14);
}

TEST(Sources, MomentTensorAndForceLayout) {
  auto stf = std::make_shared<nsei::GaussianPulse>(0.1, 0.0);
  const auto mt = nsei::momentTensorSource({1, 2, 3}, {1, 2, 3, 4, 5, 6}, stf);
  ASSERT_EQ(mt.weights.size(), 9u);
  for (int_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(mt.weights[i], i + 1.0);
  for (int_t i = 6; i < 9; ++i) EXPECT_DOUBLE_EQ(mt.weights[i], 0.0);
  const auto f = nsei::forceSource({0, 0, 0}, {7, 8, 9}, stf);
  for (int_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(f.weights[i], 0.0);
  EXPECT_DOUBLE_EQ(f.weights[nglts::kVelU], 7.0);
  EXPECT_DOUBLE_EQ(f.weights[nglts::kVelW], 9.0);
}

TEST(Receiver, ResampleLinearInterpolation) {
  nsei::Seismogram s;
  for (int i = 0; i <= 10; ++i) {
    s.times.push_back(0.1 * i);
    std::array<double, 9> v{};
    v[0] = i; // linear ramp
    s.values.push_back(v);
  }
  const auto r = nsei::resample(s, 0, 1.0, 21);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_NEAR(r[i], 0.5 * i, 1e-12);
}

TEST(Receiver, ResampleClampsOutside) {
  nsei::Seismogram s;
  s.times = {0.5, 0.6};
  s.values.resize(2);
  s.values[0][0] = 3.0;
  s.values[1][0] = 4.0;
  const auto r = nsei::resample(s, 0, 1.0, 3); // samples at 0, 0.5, 1.0
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
}

TEST(Misfit, EnergyMisfitProperties) {
  const std::vector<double> ref = {1, 2, 3, 2, 1};
  EXPECT_DOUBLE_EQ(nsei::energyMisfit(ref, ref), 0.0);
  std::vector<double> scaled = ref;
  for (double& v : scaled) v *= 1.1;
  // E = (0.1)^2 for a pure amplitude error.
  EXPECT_NEAR(nsei::energyMisfit(scaled, ref), 0.01, 1e-12);
  EXPECT_THROW(nsei::energyMisfit({1.0}, {1.0, 2.0}), std::runtime_error);
  EXPECT_THROW(nsei::energyMisfit({1.0}, {0.0}), std::runtime_error);
}

TEST(Misfit, RmsAndPeak) {
  EXPECT_NEAR(nsei::rmsDifference({1, 1}, {2, 2}), 1.0, 1e-14);
  EXPECT_DOUBLE_EQ(nsei::peakAmplitude({-3.0, 2.0}), 3.0);
  // A NaN sample anywhere makes the peak NaN instead of vanishing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(nsei::peakAmplitude({nan, 1.0})));
  EXPECT_TRUE(std::isnan(nsei::peakAmplitude({1.0, nan, -3.0})));
}

TEST(VelocityModels, Loh3LayerAndHalfspace) {
  nsei::Loh3Model m(0.0);
  const auto layer = m.at({0, 0, -500.0});
  EXPECT_DOUBLE_EQ(layer.vs, 2000.0);
  EXPECT_DOUBLE_EQ(layer.qs, 40.0);
  const auto half = m.at({0, 0, -1500.0});
  EXPECT_DOUBLE_EQ(half.vs, 3464.0);
  EXPECT_DOUBLE_EQ(half.qp, 155.9);
}

TEST(VelocityModels, LaHabraLikeRangeAndBasin) {
  nsei::LaHabraLikeModel::Params p;
  nsei::LaHabraLikeModel m(p);
  // Basin center surface is slow; deep rock is fast; all within bounds.
  const auto basin = m.at({0.0, 0.0, 0.0});
  const auto rock = m.at({0.0, 0.0, -7000.0});
  EXPECT_LT(basin.vs, 700.0);
  EXPECT_GT(rock.vs, 2000.0);
  for (double x : {-15000.0, -3000.0, 0.0, 4000.0, 20000.0})
    for (double z : {0.0, -1000.0, -5000.0}) {
      const auto s = m.at({x, 0.7 * x, z});
      EXPECT_GE(s.vs, p.vsMin);
      EXPECT_LE(s.vs, p.vsMax);
      EXPECT_GT(s.rho, 1000.0);
      EXPECT_GT(s.vp, s.vs);
    }
}

TEST(VelocityModels, MaterialsForMeshRespectsMechanisms) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0, 1000, 2);
  spec.planes[1] = nm::uniformPlanes(0, 1000, 2);
  spec.planes[2] = nm::uniformPlanes(-2000, 0, 4);
  const auto mesh = nm::generateBox(spec);
  nsei::Loh3Model model(0.0);
  const auto visc = nsei::materialsForMesh(mesh, model, 3, 1.0);
  const auto elas = nsei::materialsForMesh(mesh, model, 0, 1.0);
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    EXPECT_EQ(visc[e].mechanisms(), 3);
    EXPECT_EQ(elas[e].mechanisms(), 0);
    // Unrelaxed moduli exceed the elastic ones.
    EXPECT_GT(visc[e].mu, elas[e].mu);
  }
}

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

/// LOH.3 everywhere, but throws below `zThrow` and samples Q_p = -1 (a
/// singular one-mechanism constant-Q fit) right of `xSingular`.
class FailingModel final : public nsei::VelocityModel {
 public:
  FailingModel(double zThrow, double xSingular) : zThrow_(zThrow), xSingular_(xSingular) {}
  nsei::MaterialSample at(const std::array<double, 3>& x) const override {
    if (x[2] < zThrow_) throw std::runtime_error("no sample at z = " + std::to_string(x[2]));
    nsei::MaterialSample s = loh3_.at(x);
    if (x[0] > xSingular_) s.qp = -1.0;
    return s;
  }

 private:
  nsei::Loh3Model loh3_{0.0};
  double zThrow_, xSingular_;
};

} // namespace

TEST(VelocityModels, MaterialsForMeshNamesTheLowestFailingElement) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0, 1000, 3);
  spec.planes[1] = nm::uniformPlanes(0, 1000, 3);
  spec.planes[2] = nm::uniformPlanes(-2000, 0, 4);
  const auto mesh = nm::generateBox(spec);
  struct Case {
    double zThrow, xSingular;
    std::string error; ///< empty: either error may come first
  };
  for (const Case& c : {Case{-1500.0, 2000.0, "no sample at z = "},
                        Case{-3000.0, 600.0, "fitConstantQ: singular"},
                        Case{-1500.0, 600.0, ""}}) {
    const FailingModel model(c.zThrow, c.xSingular);
    idx_t lowest = 0;
    while (mesh.centroid(lowest)[2] >= c.zThrow && mesh.centroid(lowest)[0] <= c.xSingular)
      ++lowest;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const ScopedOmpThreads scope(threads);
      std::string what = "no exception";
      try {
        nsei::materialsForMesh(mesh, model, 1, 1.0);
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      EXPECT_EQ(what.rfind("materialsForMesh: element " + std::to_string(lowest) + ": ", 0), 0u)
          << what;
      EXPECT_NE(what.find(c.error), std::string::npos) << what;
    }
  }
}
