#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cli/scenario.hpp"
#include "seismo/misfit.hpp"
#include "seismo/velocity_model.hpp"
#include "solver/simulation.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

using namespace nglts::test;

TEST(SolverLts, SingleClusterLtsIsExactlyGts) {
  auto gts = makeLayeredSim<double, 1>(ns::TimeScheme::kGts, 1, 0);
  auto lts = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 1, 0);
  addStandardSourceAndReceiver(gts);
  addStandardSourceAndReceiver(lts);
  gts.run(0.25);
  lts.run(0.25);
  // Identical op sequence => bitwise identical results.
  for (idx_t el = 0; el < gts.meshRef().numElements(); ++el) {
    const double* a = gts.dofs(el);
    const double* b = lts.dofs(el);
    for (std::size_t i = 0; i < gts.kernels().dofsPerElement(); ++i)
      ASSERT_EQ(a[i], b[i]) << "element " << el << " dof " << i;
  }
}

TEST(SolverLts, MultiClusterUsed) {
  auto lts = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 0);
  const auto& c = lts.clustering();
  idx_t populated = 0;
  for (idx_t s : c.clusterSize) populated += (s > 0);
  EXPECT_GE(populated, 2) << "fixture must exercise multiple clusters";
  EXPECT_GT(c.theoreticalSpeedup, 1.2);
}

TEST(SolverLts, FusedLanesAreLinearInSource) {
  // Lane w runs with a scaled source; by linearity its seismogram must be
  // the scaled lane-0 seismogram (validates the fused data layout end-to-end).
  auto sim = makeLayeredSim<double, 2>(ns::TimeScheme::kLtsNextGen, 3, 3, 1.0, 4, true);
  addStandardSourceAndReceiver(sim, {1.0, 2.5});
  const auto st = sim.run(3.0);
  const auto l0 = traceOf(sim.receiver(0), st.simulatedTime, 0);
  const auto l1 = traceOf(sim.receiver(0), st.simulatedTime, 1);
  ASSERT_GT(nsei::peakAmplitude(l0), 0.0);
  std::vector<double> scaled(l0.size());
  for (std::size_t i = 0; i < l0.size(); ++i) scaled[i] = 2.5 * l0[i];
  EXPECT_LT(nsei::energyMisfit(l1, scaled), 1e-12);
}

TEST(SolverLts, PerfCountersPopulated) {
  auto sim = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 0);
  addStandardSourceAndReceiver(sim);
  const auto st = sim.run(0.2);
  EXPECT_GT(st.cycles, 0u);
  EXPECT_GT(st.elementUpdates, 0u);
  EXPECT_GT(st.flops, 0u);
  EXPECT_GT(st.seconds, 0.0);
  EXPECT_GE(st.simulatedTime, 0.2);
}

TEST(SolverLts, CommBytesFaceLocalSmaller) {
  auto sim = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3);
  // Split the mesh in half along x by centroid.
  std::vector<int_t> part(sim.meshRef().numElements());
  for (idx_t e = 0; e < sim.meshRef().numElements(); ++e)
    part[e] = sim.meshRef().centroid(e)[0] > 500.0;
  const auto full = sim.cycleCommBytes(part, false);
  const auto compressed = sim.cycleCommBytes(part, true);
  EXPECT_GT(full, 0u);
  EXPECT_LT(compressed, full);
  // Ratio is F/B = 6/10 for order 3.
  EXPECT_NEAR(static_cast<double>(compressed) / full, 0.6, 1e-9);
  part.pop_back();
  EXPECT_THROW(sim.cycleCommBytes(part, true), std::invalid_argument);
}

TEST(SolverLts, BaselineCommBytesLarger) {
  auto base = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsBaseline, 3, 3);
  auto next = makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 3);
  std::vector<int_t> part(base.meshRef().numElements());
  for (idx_t e = 0; e < base.meshRef().numElements(); ++e)
    part[e] = base.meshRef().centroid(e)[0] > 500.0;
  // The derivative paradigm ships O x 9 x B values where the new scheme
  // ships 9 x F per face (Sec. V motivation).
  EXPECT_GT(base.cycleCommBytes(part, false), next.cycleCommBytes(part, true));
}

// ---------------------------------------------------------------------------
// Golden seismogram fixtures: the committed traces under tests/golden/ pin
// the quickstart GTS and LTS runs to *absolute* values, so refactors that
// preserve self-consistency (e.g. LTS vs GTS misfit) but shift the physics
// still fail here. Regenerate with:
//   nglts --scenario quickstart --scheme {gts|lts} --order 3 --scale 0.4
//         --end-time 0.8 --lambda 0.9 --output tests/golden/<scheme>_
//   mv tests/golden/<scheme>_quickstart_seismogram.csv \
//      tests/golden/quickstart_<scheme>.csv
// ---------------------------------------------------------------------------

namespace {

#ifndef NGLTS_GOLDEN_DIR
#define NGLTS_GOLDEN_DIR "tests/golden"
#endif

std::vector<double> readGoldenTrace(const std::string& path) {
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

void checkGoldenQuickstart(ns::TimeScheme scheme, const std::string& file) {
  nglts::cli::registerBuiltinScenarios();
  const nglts::cli::Scenario* s = nglts::cli::ScenarioRegistry::instance().find("quickstart");
  ASSERT_NE(s, nullptr);
  nglts::cli::ScenarioOptions opts;
  opts.order = 3;
  opts.scheme = scheme;
  opts.meshScale = 0.4;
  opts.endTime = 0.8;
  opts.lambda = 0.9;
  opts.quiet = true;
  const nglts::cli::ScenarioReport report = s->run(opts);

  const auto golden = readGoldenTrace(std::string(NGLTS_GOLDEN_DIR) + "/" + file);
  ASSERT_FALSE(golden.empty()) << "missing golden fixture " << file;
  ASSERT_EQ(report.trace.size(), golden.size());
  double peak = 0.0;
  for (double v : golden) peak = std::max(peak, std::fabs(v));
  ASSERT_GT(peak, 0.0) << "golden trace must carry signal";
  // Tight relative tolerance: bitwise on the producing toolchain, headroom
  // only for compiler/libm variation across platforms.
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_NEAR(report.trace[i], golden[i], 1e-9 * peak) << "sample " << i;
}

} // namespace

TEST(SolverLtsGolden, QuickstartGtsMatchesCommittedFixture) {
  checkGoldenQuickstart(ns::TimeScheme::kGts, "quickstart_gts.csv");
}

TEST(SolverLtsGolden, QuickstartLtsMatchesCommittedFixture) {
  checkGoldenQuickstart(ns::TimeScheme::kLtsNextGen, "quickstart_lts.csv");
}

// SCEC LOH.1 (elastic layer-over-halfspace): the golden fixture pins the
// scenario end to end — velocity-aware pipeline, clustered LTS, kinematic
// source and receiver resampling. Regenerate with:
//   nglts --scenario loh1 --order 3 --end-time 0.8 --lambda 0.9 \
//         --output tests/golden/
//   mv tests/golden/loh1_seismogram.csv tests/golden/loh1_lts.csv
TEST(SolverLtsGolden, Loh1MatchesCommittedFixtureWithMultipleClusters) {
  nglts::cli::registerBuiltinScenarios();
  const nglts::cli::Scenario* s = nglts::cli::ScenarioRegistry::instance().find("loh1");
  ASSERT_NE(s, nullptr);
  nglts::cli::ScenarioOptions opts;
  opts.order = 3;
  opts.endTime = 0.8;
  opts.lambda = 0.9;
  opts.quiet = true;
  const nglts::cli::ScenarioReport report = s->run(opts);

  // The layer/halfspace vs contrast must grade the mesh into genuinely
  // heterogeneous time steps: a single populated cluster would mean the
  // benchmark degenerated into GTS and stopped exercising the LTS machinery.
  int_t populated = 0;
  for (idx_t size : report.clusterHistogram) populated += size > 0;
  EXPECT_GE(populated, 2) << "LOH.1 must populate more than one LTS cluster";

  const auto golden = readGoldenTrace(std::string(NGLTS_GOLDEN_DIR) + "/loh1_lts.csv");
  ASSERT_FALSE(golden.empty()) << "missing golden fixture loh1_lts.csv";
  ASSERT_EQ(report.trace.size(), golden.size());
  double peak = 0.0;
  for (double v : golden) peak = std::max(peak, std::fabs(v));
  ASSERT_GT(peak, 0.0) << "golden trace must carry signal";
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_NEAR(report.trace[i], golden[i], 1e-9 * peak) << "sample " << i;
  // Misfit gate on top of the per-sample pin: guards against coordinated
  // drift that stays inside the pointwise tolerance.
  EXPECT_LT(nsei::energyMisfit(report.trace, golden), 1e-12);
}
