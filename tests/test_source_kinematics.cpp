// Kinematic finite-fault sources (seismo/fault.hpp) and the sampled
// moment-rate time function (PiecewiseLinearStf): exact-integral unit tests,
// the fault-file parser conformance matrix (line-numbered rejections), and
// the two solver-level equivalence properties — a single-subfault file
// reproduces the equivalent programmatic point source bitwise, and multiple
// subfaults superimpose linearly (fp tolerance).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/box_gen.hpp"
#include "physics/material.hpp"
#include "seismo/fault.hpp"
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

// ---------------------------------------------------------------------------
// PiecewiseLinearStf
// ---------------------------------------------------------------------------

const std::vector<std::array<double, 2>> kHat = {{0.0, 0.0}, {1.0, 2.0}, {3.0, 0.0}};

} // namespace

TEST(PiecewiseLinearStf, InterpolatesLinearlyAndVanishesOutside) {
  const nsei::PiecewiseLinearStf stf(kHat);
  EXPECT_DOUBLE_EQ(stf.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stf.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(stf.value(1.0), 2.0);
  EXPECT_DOUBLE_EQ(stf.value(2.0), 1.0);
  EXPECT_DOUBLE_EQ(stf.value(3.0), 0.0);
  EXPECT_DOUBLE_EQ(stf.value(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(stf.value(3.1), 0.0);
}

TEST(PiecewiseLinearStf, IntegralIsExactTrapezoid) {
  const nsei::PiecewiseLinearStf stf(kHat);
  // Full area: 0.5*(0+2)*1 + 0.5*(2+0)*2 = 3.
  EXPECT_DOUBLE_EQ(stf.integral(0.0, 3.0), 3.0);
  // Clamping: the history is zero outside the sampled range.
  EXPECT_DOUBLE_EQ(stf.integral(-10.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(stf.integral(-5.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(stf.integral(4.0, 9.0), 0.0);
  // Partial interval crossing a sample point: [0.5,1] -> 0.75, [1,2] -> 1.5.
  EXPECT_DOUBLE_EQ(stf.integral(0.5, 2.0), 2.25);
  // Additivity over a split point (the ADER property the class exists for).
  const double split = stf.integral(0.0, 1.37) + stf.integral(1.37, 3.0);
  EXPECT_NEAR(split, 3.0, 1e-15);
}

TEST(PiecewiseLinearStf, TimeShiftTranslatesTheHistory) {
  const nsei::PiecewiseLinearStf base(kHat);
  const nsei::PiecewiseLinearStf shifted(kHat, 0.7);
  for (double t : {-0.2, 0.0, 0.4, 1.0, 2.3, 3.0, 3.5}) {
    EXPECT_DOUBLE_EQ(shifted.value(t + 0.7), base.value(t)) << "t = " << t;
  }
  EXPECT_DOUBLE_EQ(shifted.integral(0.7, 3.7), base.integral(0.0, 3.0));
}

TEST(PiecewiseLinearStf, RejectsInvalidSampleSets) {
  EXPECT_THROW(nsei::PiecewiseLinearStf({}), std::invalid_argument);
  EXPECT_THROW(nsei::PiecewiseLinearStf({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(nsei::PiecewiseLinearStf({{0.0, 1.0}, {0.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(nsei::PiecewiseLinearStf({{0.5, 1.0}, {0.2, 2.0}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault-file parser
// ---------------------------------------------------------------------------

namespace {

void expectFaultError(const std::string& content, const std::string& needle,
                      idx_t expectedLine = -1) {
  std::istringstream in(content);
  try {
    nsei::parseFault(in, "test.fault");
    FAIL() << "expected std::invalid_argument for: " << needle;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test.fault"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    if (expectedLine >= 0)
      EXPECT_NE(what.find("test.fault:" + std::to_string(expectedLine) + ":"),
                std::string::npos)
          << "wrong line number in: " << what;
  }
}

} // namespace

TEST(FaultParser, ParsesMultiSubfaultFile) {
  const char* content =
      "# two-subfault kinematic rupture\n"
      "subfault\n"
      "position 510 480 350\n"
      "moment 0 0 0 1e9 0 0\n"
      "stf 0 0\n"
      "stf 0.2 1\n"
      "subfault\n"
      "position 430 560 600\n"
      "moment 1e8 1e8 1e8 0 0 0\n"
      "onset 0.1\n"
      "stf 0 0\n"
      "stf 0.1 2\n"
      "stf 0.3 0\n";
  std::istringstream in(content);
  const nsei::FiniteFault fault = nsei::parseFault(in, "two.fault");
  ASSERT_EQ(fault.subfaults.size(), 2u);
  EXPECT_DOUBLE_EQ(fault.subfaults[0].position[0], 510.0);
  EXPECT_DOUBLE_EQ(fault.subfaults[0].moment[3], 1e9);
  EXPECT_DOUBLE_EQ(fault.subfaults[0].onset, 0.0); // default
  EXPECT_EQ(fault.subfaults[0].stf.size(), 2u);
  EXPECT_DOUBLE_EQ(fault.subfaults[1].onset, 0.1);
  EXPECT_EQ(fault.subfaults[1].stf.size(), 3u);

  const auto sources = fault.pointSources();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].position, fault.subfaults[0].position);
  // Subfault 2's history is shifted by its onset: peak of 2 at t = 0.2.
  EXPECT_DOUBLE_EQ(sources[1].stf->value(0.2), 2.0);
  EXPECT_DOUBLE_EQ(sources[1].stf->value(0.05), 0.0);
}

TEST(FaultParser, RejectsDirectiveBeforeFirstSubfault) {
  expectFaultError("position 1 2 3\n", "before the first 'subfault'", 1);
}

TEST(FaultParser, RejectsMissingPosition) {
  expectFaultError("subfault\nmoment 0 0 0 1 0 0\nstf 0 0\nstf 1 1\n",
                   "subfault missing 'position'", 1);
}

TEST(FaultParser, RejectsMissingMoment) {
  expectFaultError("subfault\nposition 1 2 3\nstf 0 0\nstf 1 1\n", "subfault missing 'moment'",
                   1);
}

TEST(FaultParser, RejectsTooFewStfSamples) {
  expectFaultError("subfault\nposition 1 2 3\nmoment 0 0 0 1 0 0\nstf 0 1\n",
                   "at least 2 'stf' samples", 1);
}

TEST(FaultParser, RejectsNonIncreasingStfTimes) {
  expectFaultError(
      "subfault\nposition 1 2 3\nmoment 0 0 0 1 0 0\nstf 0 0\nstf 0.5 1\nstf 0.5 0\n",
      "strictly increasing", 6);
}

TEST(FaultParser, RejectsDuplicateDirectives) {
  expectFaultError("subfault\nposition 1 2 3\nposition 4 5 6\n", "duplicate 'position'", 3);
  expectFaultError("subfault\nmoment 0 0 0 1 0 0\nmoment 0 0 0 2 0 0\n", "duplicate 'moment'",
                   3);
  expectFaultError("subfault\nonset 0.1\nonset 0.2\n", "duplicate 'onset'", 3);
}

TEST(FaultParser, RejectsUnknownDirectiveAndArity) {
  expectFaultError("subfault\nslip 3\n", "unknown directive 'slip'", 2);
  expectFaultError("subfault\nposition 1 2\n", "'position' needs 3 values", 2);
  expectFaultError("subfault\nmoment 1 2 3\n", "'moment' needs 6 values", 2);
  expectFaultError("subfault\nstf 1\n", "'stf' needs 2 values", 2);
  expectFaultError("subfault extra\n", "'subfault' takes no arguments", 1);
}

TEST(FaultParser, RejectsInvalidNumbers) {
  expectFaultError("subfault\nposition 1 2 x\n", "invalid number 'x'", 2);
  // Non-finite values: a NaN moment would run silently, an infinite onset
  // would fail in the source-time function without a location.
  expectFaultError("subfault\nposition 1 2 nan\n", "invalid number 'nan'", 2);
  expectFaultError("subfault\nmoment 0 0 0 nan 0 0\n", "invalid number 'nan'", 2);
  expectFaultError("subfault\nonset inf\n", "invalid number 'inf'", 2);
  expectFaultError("subfault\nstf 0 0\nstf -inf 1\n", "invalid number '-inf'", 3);
  expectFaultError("subfault\nstf 0 INFINITY\n", "invalid number 'INFINITY'", 2);
}

TEST(FaultParser, RejectsEmptyFile) {
  expectFaultError("# only comments\n\n", "no subfaults defined");
}

TEST(FaultParser, MissingFileThrows) {
  EXPECT_THROW(nsei::parseFaultFile("/nonexistent/no-such.fault"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Solver-level equivalence
// ---------------------------------------------------------------------------

namespace {

/// The layered miniature of test_solver_lts: two velocity layers, jittered,
/// genuine multi-cluster LTS at order 3.
ns::Simulation<double, 1> makeSim() {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, 4);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, 4);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, 4);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  auto mesh = nm::generateBox(spec);
  std::vector<np::Material> mats(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const double vs = mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = 0;
  cfg.scheme = ns::TimeScheme::kLtsNextGen;
  cfg.numClusters = 3;
  return ns::Simulation<double, 1>(std::move(mesh), std::move(mats), cfg);
}

std::vector<double> traceOf(const nsei::Receiver& r, double tEnd) {
  return nsei::resample(r.traces[0], nglts::kVelU, tEnd, 300);
}

// The sampled moment-rate history used both programmatically and through the
// parser. The decimal literals below appear VERBATIM in the fault text, so
// both paths construct bit-identical doubles.
const std::vector<std::array<double, 2>> kRupture = {
    {0.0, 0.0}, {0.1, 1e9}, {0.3, 2.5e8}, {0.6, 0.0}};

const char* kSingleSubfaultText =
    "subfault\n"
    "position 510 480 350\n"
    "moment 0 0 0 1e9 0 0\n"
    "onset 0.05\n"
    "stf 0.0 0.0\n"
    "stf 0.1 1e9\n"
    "stf 0.3 2.5e8\n"
    "stf 0.6 0.0\n";

} // namespace

TEST(FaultEquivalence, SingleSubfaultReproducesPointSourceBitwise) {
  auto programmatic = makeSim();
  programmatic.addPointSource(nsei::momentTensorSource(
      {510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0},
      std::make_shared<nsei::PiecewiseLinearStf>(kRupture, 0.05)));
  ASSERT_GE(programmatic.addReceiver({760.0, 730.0, 930.0}), 0);

  auto parsed = makeSim();
  std::istringstream in(kSingleSubfaultText);
  const nsei::FiniteFault fault = nsei::parseFault(in, "single.fault");
  ASSERT_EQ(fault.subfaults.size(), 1u);
  for (const nsei::PointSource& src : fault.pointSources()) parsed.addPointSource(src);
  ASSERT_GE(parsed.addReceiver({760.0, 730.0, 930.0}), 0);

  const auto sa = programmatic.run(0.6);
  const auto sb = parsed.run(0.6);
  ASSERT_EQ(sa.cycles, sb.cycles);

  // Bitwise: same mesh (seeded), same source bits, same op sequence.
  for (idx_t el = 0; el < programmatic.meshRef().numElements(); ++el) {
    const double* a = programmatic.dofs(el);
    const double* b = parsed.dofs(el);
    for (std::size_t i = 0; i < programmatic.kernels().dofsPerElement(); ++i)
      ASSERT_EQ(a[i], b[i]) << "element " << el << " dof " << i;
  }
  const double tEnd = sa.simulatedTime;
  const auto ta = traceOf(programmatic.receiver(0), tEnd);
  const auto tb = traceOf(parsed.receiver(0), tEnd);
  ASSERT_GT(nsei::peakAmplitude(ta), 0.0) << "source did not radiate";
  for (std::size_t i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]) << "sample " << i;
}

TEST(FaultEquivalence, MultiSubfaultSuperimposesLinearly) {
  const char* combinedText =
      "subfault\n"
      "position 510 480 350\n"
      "moment 0 0 0 1e9 0 0\n"
      "stf 0.0 0.0\n"
      "stf 0.1 1e9\n"
      "stf 0.4 0.0\n"
      "subfault\n"
      "position 430 560 620\n"
      "moment 5e8 5e8 5e8 0 0 0\n"
      "onset 0.1\n"
      "stf 0.0 0.0\n"
      "stf 0.15 8e8\n"
      "stf 0.35 0.0\n";
  std::istringstream in(combinedText);
  const nsei::FiniteFault fault = nsei::parseFault(in, "combined.fault");
  ASSERT_EQ(fault.subfaults.size(), 2u);
  const auto sources = fault.pointSources();

  auto combined = makeSim();
  for (const nsei::PointSource& src : sources) combined.addPointSource(src);
  ASSERT_GE(combined.addReceiver({760.0, 730.0, 930.0}), 0);
  const auto sc = combined.run(0.6);
  const double tEnd = sc.simulatedTime;
  const auto tc = traceOf(combined.receiver(0), tEnd);

  // Each subfault alone, traces summed: the linear PDE superimposes exactly;
  // fp reassociation is the only discrepancy.
  std::vector<double> sum(tc.size(), 0.0);
  for (const nsei::PointSource& src : sources) {
    auto solo = makeSim();
    solo.addPointSource(src);
    ASSERT_GE(solo.addReceiver({760.0, 730.0, 930.0}), 0);
    const auto ss = solo.run(0.6);
    ASSERT_EQ(ss.cycles, sc.cycles);
    const auto ts = traceOf(solo.receiver(0), tEnd);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += ts[i];
  }
  ASSERT_GT(nsei::peakAmplitude(tc), 0.0);
  EXPECT_LT(nsei::energyMisfit(tc, sum), 1e-10);
}
