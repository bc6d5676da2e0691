// The multi-second cases of the solver suites, under the `slow` ctest
// label: the seismogram-accuracy comparisons of test_solver_lts and the
// order-6 point of test_fused's order sweep. They keep their suite and case
// names; the default labels leave them out so the quick suite stays quick.
#include <gtest/gtest.h>

#include <algorithm>

#include "seismo/misfit.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace nsei = nglts::seismo;
using nglts::int_t;
using namespace nglts::test;

TEST(SolverLts, LtsSeismogramMatchesGts) {
  // Fig. 9's claim: LTS and GTS seismograms nearly identical (E small).
  auto gts = makeLayeredSim<double, 1>(ns::TimeScheme::kGts, 1, 0);
  auto lts = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 0);
  addStandardSourceAndReceiver(gts);
  addStandardSourceAndReceiver(lts);
  const auto sg = gts.run(5.0);
  const auto sl = lts.run(5.0);
  const double tEnd = std::min(sg.simulatedTime, sl.simulatedTime);
  const auto a = traceOf(gts.receiver(0), tEnd);
  const auto b = traceOf(lts.receiver(0), tEnd);
  ASSERT_GT(nsei::peakAmplitude(a), 0.0) << "source did not radiate";
  EXPECT_LT(nsei::energyMisfit(b, a), 2e-3);
}

TEST(SolverLts, LtsSeismogramMatchesGtsAnelastic) {
  auto gts = makeLayeredSim<double, 1>(ns::TimeScheme::kGts, 1, 3);
  auto lts = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3);
  addStandardSourceAndReceiver(gts);
  addStandardSourceAndReceiver(lts);
  const auto sg = gts.run(5.0);
  const auto sl = lts.run(5.0);
  const double tEnd = std::min(sg.simulatedTime, sl.simulatedTime);
  const auto a = traceOf(gts.receiver(0), tEnd);
  const auto b = traceOf(lts.receiver(0), tEnd);
  ASSERT_GT(nsei::peakAmplitude(a), 0.0);
  EXPECT_LT(nsei::energyMisfit(b, a), 2e-3);
}

TEST(SolverLts, LambdaBelowOneStillAccurate) {
  auto gts = makeLayeredSim<double, 1>(ns::TimeScheme::kGts, 1, 0);
  auto lts = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 0, 0.8);
  addStandardSourceAndReceiver(gts);
  addStandardSourceAndReceiver(lts);
  const auto sg = gts.run(5.0);
  const auto sl = lts.run(5.0);
  const double tEnd = std::min(sg.simulatedTime, sl.simulatedTime);
  EXPECT_LT(nsei::energyMisfit(traceOf(lts.receiver(0), tEnd), traceOf(gts.receiver(0), tEnd)),
            2e-3);
}

TEST(SolverLts, BaselineSchemeMatchesNextGen) {
  // Both LTS schemes integrate the same math; only the neighbor-data
  // paradigm differs. Solutions agree to round-off-ish levels.
  auto a = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3);
  auto b = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsBaseline, 3, 3);
  addStandardSourceAndReceiver(a);
  addStandardSourceAndReceiver(b);
  const auto sa = a.run(3.0);
  b.run(3.0);
  const double tEnd = sa.simulatedTime;
  const auto ta = traceOf(a.receiver(0), tEnd);
  const auto tb = traceOf(b.receiver(0), tEnd);
  ASSERT_GT(nsei::peakAmplitude(ta), 0.0);
  EXPECT_LT(nsei::energyMisfit(tb, ta), 1e-10);
}

TEST(SolverLts, SparseKernelsMatchDense) {
  auto a = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3, 1.0, 4, false);
  auto b = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3, 1.0, 4, true);
  addStandardSourceAndReceiver(a);
  addStandardSourceAndReceiver(b);
  const auto sa = a.run(3.0);
  b.run(3.0);
  const auto ta = traceOf(a.receiver(0), sa.simulatedTime);
  const auto tb = traceOf(b.receiver(0), sa.simulatedTime);
  EXPECT_LT(nsei::energyMisfit(tb, ta), 1e-12);
}

class OrderSweepP : public ::testing::TestWithParam<int_t> {};

TEST_P(OrderSweepP, LtsAnelasticStableAndNonTrivial) { checkLtsAnelasticStable(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Orders, OrderSweepP, ::testing::Values(6), orderSweepName);
