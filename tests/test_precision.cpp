// fp32 execution mode: `--precision f32` runs the whole solver stack
// (arenas, kernels, predictor, seismo hooks) at float. fp32 is NOT
// bitwise-comparable to fp64 — these tests gate it by seismogram energy
// misfit E against the double-precision golden fixtures (quickstart) and
// against a same-configuration f64 run (baseline scheme, LOH.3), per the
// precision policy in docs/KERNELS.md. Also covers the `--precision`
// parse/override plumbing and the f32-only fused/lahabra scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/scenario.hpp"
#include "seismo/misfit.hpp"
#include "solver_fixtures.hpp"

namespace nc = nglts::cli;
namespace ns = nglts::solver;
namespace nsei = nglts::seismo;
using nglts::test::goldenQuickstartOptions;
using nglts::test::readGoldenTrace;

namespace {

#ifndef NGLTS_GOLDEN_DIR
#define NGLTS_GOLDEN_DIR "tests/golden"
#endif

// fp32 misfit tolerances. Measured on the producing toolchain (g++ 12,
// -O3): quickstart f32-vs-golden E lands around 1e-10..1e-9 — fp32
// round-off (~1e-7 relative per sample) enters E *squared*. The gates
// leave ~100x headroom for accumulation differences across compilers and
// ISAs while still catching any real precision regression (a single
// wrong-order term shifts E by many orders of magnitude).
constexpr double kQuickstartF32MisfitTol = 1e-7;
constexpr double kBaselineF32MisfitTol = 1e-7;
constexpr double kLoh3F32MisfitTol = 1e-6;

const nc::Scenario* scenario(const std::string& name) {
  return nc::findScenario(name);
}

/// Run quickstart at f32 and gate against the committed f64 golden trace.
void checkQuickstartF32Golden(ns::TimeScheme scheme, const std::string& file) {
  const nc::Scenario* s = scenario("quickstart");
  ASSERT_NE(s, nullptr);
  const nc::ScenarioReport report = s->run(goldenQuickstartOptions(scheme, ns::Precision::kF32));
  EXPECT_EQ(report.config.precision, ns::Precision::kF32);
  EXPECT_NE(report.summary.find("precision: f32"), std::string::npos) << report.summary;

  const auto golden = readGoldenTrace(std::string(NGLTS_GOLDEN_DIR) + "/" + file);
  ASSERT_FALSE(golden.empty()) << "missing golden fixture " << file;
  ASSERT_EQ(report.trace.size(), golden.size());
  for (double v : report.trace) ASSERT_TRUE(std::isfinite(v));
  const double misfit = nsei::energyMisfit(report.trace, golden);
  EXPECT_LT(misfit, kQuickstartF32MisfitTol) << "f32 drifted from the f64 golden";
  // And the run must actually have been single precision: an f32 trace
  // bitwise-equal to the f64 golden means the dispatch silently ran f64.
  EXPECT_GT(misfit, 0.0) << "f32 run is bitwise-identical to the f64 golden";
}

} // namespace

// ---------------------------------------------------------------------------
// Plumbing: parse, defaults, overrides, f32-only scenarios
// ---------------------------------------------------------------------------

TEST(Precision, ParseRoundTrips) {
  EXPECT_EQ(ns::parsePrecision("f64"), ns::Precision::kF64);
  EXPECT_EQ(ns::parsePrecision("f32"), ns::Precision::kF32);
  EXPECT_THROW(ns::parsePrecision("f16"), std::invalid_argument);
  EXPECT_THROW(ns::parsePrecision("double"), std::invalid_argument);
  EXPECT_THROW(ns::parsePrecision(""), std::invalid_argument);
  for (auto p : {ns::Precision::kF64, ns::Precision::kF32})
    EXPECT_EQ(ns::parsePrecision(ns::precisionName(p)), p);
}

TEST(Precision, DefaultIsF64AndOverrideApplies) {
  for (const char* name : {"quickstart", "loh3", "batch"}) {
    const nc::Scenario* s = scenario(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->resolveConfig({}).precision, ns::Precision::kF64) << name;
    nc::ScenarioOptions opts;
    opts.precision = ns::Precision::kF32;
    EXPECT_EQ(s->resolveConfig(opts).precision, ns::Precision::kF32) << name;
  }
}

TEST(Precision, FusedAndLahabraAreF32Only) {
  for (const char* name : {"fused", "lahabra"}) {
    const nc::Scenario* s = scenario(name);
    ASSERT_NE(s, nullptr) << name;
    // Default and explicit f32 resolve to f32...
    EXPECT_EQ(s->resolveConfig({}).precision, ns::Precision::kF32) << name;
    nc::ScenarioOptions f32;
    f32.precision = ns::Precision::kF32;
    EXPECT_EQ(s->resolveConfig(f32).precision, ns::Precision::kF32) << name;
    // ...but an explicit f64 is a hard error, not a silent downgrade.
    nc::ScenarioOptions f64;
    f64.precision = ns::Precision::kF64;
    EXPECT_THROW(s->resolveConfig(f64), std::invalid_argument) << name;
    EXPECT_THROW(s->run(f64), std::invalid_argument) << name;
  }
}

// ---------------------------------------------------------------------------
// Misfit gates: quickstart vs committed f64 goldens, baseline and LOH.3
// vs a same-configuration f64 run
// ---------------------------------------------------------------------------

TEST(PrecisionMisfit, QuickstartGtsF32MatchesGolden) {
  checkQuickstartF32Golden(ns::TimeScheme::kGts, "quickstart_gts.csv");
}

TEST(PrecisionMisfit, QuickstartLtsF32MatchesGolden) {
  checkQuickstartF32Golden(ns::TimeScheme::kLtsNextGen, "quickstart_lts.csv");
}

TEST(PrecisionMisfit, QuickstartBaselineF32MatchesF64) {
  // No committed baseline golden exists; the gate is f32 vs f64 of the
  // identical baseline-scheme configuration.
  const nc::Scenario* s = scenario("quickstart");
  ASSERT_NE(s, nullptr);
  const nc::ScenarioReport f64 =
      s->run(goldenQuickstartOptions(ns::TimeScheme::kLtsBaseline, ns::Precision::kF64));
  const nc::ScenarioReport f32 =
      s->run(goldenQuickstartOptions(ns::TimeScheme::kLtsBaseline, ns::Precision::kF32));
  EXPECT_NE(f64.summary.find("precision: f64"), std::string::npos) << f64.summary;
  EXPECT_NE(f32.summary.find("precision: f32"), std::string::npos) << f32.summary;
  ASSERT_EQ(f32.trace.size(), f64.trace.size());
  const double misfit = nsei::energyMisfit(f32.trace, f64.trace);
  EXPECT_LT(misfit, kBaselineF32MisfitTol);
  EXPECT_GT(misfit, 0.0) << "f32 baseline run is bitwise-identical to f64";
}

TEST(PrecisionMisfit, Loh3F32MatchesF64) {
  // Coarse, short LOH.3: still layered materials + viscoelasticity + real
  // multi-cluster LTS, cheap enough for the suite.
  const nc::Scenario* s = scenario("loh3");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions opts;
  opts.order = 3;
  opts.meshScale = 0.3;
  opts.endTime = 0.4;
  opts.quiet = true;
  opts.lambda = 1.0; // pin lambda: the auto sweep may tip at fp32 round-off
  opts.precision = ns::Precision::kF64;
  const nc::ScenarioReport f64 = s->run(opts);
  opts.precision = ns::Precision::kF32;
  const nc::ScenarioReport f32 = s->run(opts);
  EXPECT_EQ(f32.config.precision, ns::Precision::kF32);
  EXPECT_NE(f32.summary.find("precision: f32"), std::string::npos) << f32.summary;
  ASSERT_EQ(f32.trace.size(), f64.trace.size());
  for (double v : f32.trace) ASSERT_TRUE(std::isfinite(v));
  const double misfit = nsei::energyMisfit(f32.trace, f64.trace);
  EXPECT_LT(misfit, kLoh3F32MisfitTol);
  EXPECT_GT(misfit, 0.0) << "f32 LOH.3 run is bitwise-identical to f64";
}

// ---------------------------------------------------------------------------
// Fused widths at f32: quickstart W=2 single-precision stays on the gate
// ---------------------------------------------------------------------------

TEST(PrecisionMisfit, QuickstartF32FusedWidth2MatchesGolden) {
  const nc::Scenario* s = scenario("quickstart");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions opts =
      goldenQuickstartOptions(ns::TimeScheme::kLtsNextGen, ns::Precision::kF32);
  opts.fusedWidth = 2;
  const nc::ScenarioReport report = s->run(opts);
  const auto golden =
      readGoldenTrace(std::string(NGLTS_GOLDEN_DIR) + "/quickstart_lts.csv");
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(report.trace.size(), golden.size());
  EXPECT_LT(nsei::energyMisfit(report.trace, golden), kQuickstartF32MisfitTol);
}
