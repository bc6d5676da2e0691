// Subnormal flushing of the solver loops (common/float_env.hpp). An f32 box
// whose Gaussian initial condition underflows into the subnormal range in
// the far field: the projected initial state holds subnormal DOFs, the run
// leaves none, every thread count and ranks x transport configuration
// stays bitwise-identical to the 1-thread single-rank run
// (all of them compute under the same FP mode), and the calling thread's FP
// control word is unchanged by construction and run().
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/float_env.hpp"
#include "parallel/dist_sim.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;
using nglts::test::LayeredBox;
using nglts::test::layeredConfig;
using nglts::test::makeLayeredBox;

namespace {

/// One LTS cycle: ahead of the wavefront the far field still holds values
/// below FLT_MIN, which an unflushed run leaves as subnormal DOFs.
constexpr double kEndTime = 0.01;

/// The shared two-layer box, elastic, next-gen LTS at 3 clusters.
ns::SimConfig makeCfg(int_t threads) {
  ns::SimConfig cfg = layeredConfig(ns::TimeScheme::kLtsNextGen, 3, /*mechanisms=*/0);
  cfg.numThreads = threads;
  return cfg;
}

/// Narrow Gaussian near one corner: exp(-r^2 / sigma^2) falls below
/// FLT_MIN (r^2 / sigma^2 > 87.3) from r ~ 930 m on, inside the box.
void initGaussian(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 100.0) * (x[0] - 100.0) + (x[1] - 100.0) * (x[1] - 100.0) +
                    (x[2] - 100.0) * (x[2] - 100.0);
  q9[nglts::kVelU] = std::exp(-r2 / (100.0 * 100.0));
}

template <typename Sim>
void attachInputs(Sim& sim) {
  sim.setInitialCondition(initGaussian);
  ASSERT_GE(sim.addReceiver({250.0, 200.0, 200.0}), 0); // near the pulse
  ASSERT_GE(sim.addReceiver({900.0, 900.0, 900.0}), 0); // far field
}

bool subnormal(float v) {
  // Bit test rather than a floating-point compare, which DAZ would change.
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  return (bits & 0x7f800000u) == 0 && (bits & 0x007fffffu) != 0;
}

template <typename Sim>
std::size_t countSubnormal(const Sim& sim, idx_t elements, std::size_t dofs) {
  std::size_t n = 0;
  for (idx_t e = 0; e < elements; ++e)
    for (std::size_t i = 0; i < dofs; ++i) n += subnormal(sim.dofs(e)[i]) ? 1 : 0;
  return n;
}

template <typename SimA, typename SimB>
void expectBitwise(const SimA& a, const SimB& b, idx_t elements, std::size_t dofs) {
  for (idx_t e = 0; e < elements; ++e)
    for (std::size_t i = 0; i < dofs; ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a.dofs(e)[i]),
                std::bit_cast<std::uint32_t>(b.dofs(e)[i]))
          << "element " << e << " dof " << i;
  for (idx_t r = 0; r < 2; ++r) {
    const nsei::Seismogram& ta = a.receiver(r).traces[0];
    const nsei::Seismogram& tb = b.receiver(r).traces[0];
    ASSERT_GT(ta.size(), 0u) << "receiver " << r << " recorded nothing";
    ASSERT_EQ(ta.size(), tb.size()) << "receiver " << r;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.times[i], tb.times[i]) << "receiver " << r << " sample " << i;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(ta.values[i][v], tb.values[i][v])
            << "receiver " << r << " sample " << i << " quantity " << v;
    }
  }
}

/// The 1-thread single-rank reference every configuration is compared to.
class FloatEnv : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new LayeredBox(makeLayeredBox(/*mechanisms=*/0, 4));
    reference_ = new ns::Simulation<float, 1>(fixture_->mesh, fixture_->mats, makeCfg(1));
    attachInputs(*reference_);
    subnormalsBefore_ = countSubnormal(*reference_, elements(), dofs());
    reference_->run(kEndTime);
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete fixture_;
  }
  static idx_t elements() { return fixture_->mesh.numElements(); }
  static std::vector<int_t> twoRanks() {
    std::vector<int_t> part(elements());
    for (idx_t e = 0; e < elements(); ++e) part[e] = fixture_->mesh.centroid(e)[0] < 500.0 ? 0 : 1;
    return part;
  }
  static std::size_t dofs() { return reference_->kernels().dofsPerElement(); }

  static inline LayeredBox* fixture_ = nullptr;
  static inline ns::Simulation<float, 1>* reference_ = nullptr;
  static inline std::size_t subnormalsBefore_ = 0;
};

} // namespace

TEST_F(FloatEnv, GuardSetsAndRestoresControlWord) {
  const std::uint64_t before = nglts::fpControlWord();
  {
    const nglts::ScopedFlushDenormals flush;
    if (nglts::kFlushDenormals) {
      EXPECT_NE(nglts::fpControlWord(), before);
      volatile float tiny = 1e-30f;
      EXPECT_EQ(tiny * 1e-10f, 0.0f) << "a subnormal product must flush to zero";
    }
  }
  EXPECT_EQ(nglts::fpControlWord(), before);
}

TEST_F(FloatEnv, RunFlushesEverySubnormalDof) {
  ASSERT_GE(subnormalsBefore_, 1u)
      << "precondition: the unguarded projection must leave subnormal DOFs";
  if (!nglts::kFlushDenormals) GTEST_SKIP() << "no flush-to-zero mode on this platform";
  EXPECT_EQ(countSubnormal(*reference_, elements(), dofs()), 0u);
}

TEST_F(FloatEnv, CallerControlWordUnchangedByConstructionAndRun) {
  const std::uint64_t before = nglts::fpControlWord();
  ns::Simulation<float, 1> sim(fixture_->mesh, fixture_->mats, makeCfg(2));
  EXPECT_EQ(nglts::fpControlWord(), before);
  attachInputs(sim);
  sim.run(kEndTime);
  EXPECT_EQ(nglts::fpControlWord(), before);

  npar::DistConfig dcfg;
  dcfg.sim = makeCfg(1);
  dcfg.transport = npar::Transport::kThread;
  npar::DistributedSimulation<float, 1> dist(fixture_->mesh, fixture_->mats, twoRanks(), dcfg);
  EXPECT_EQ(nglts::fpControlWord(), before);
  attachInputs(dist);
  dist.run(kEndTime);
  EXPECT_EQ(nglts::fpControlWord(), before);
}

class FloatEnvThreads : public FloatEnv, public ::testing::WithParamInterface<int_t> {};

TEST_P(FloatEnvThreads, BitwiseVsSingleThread) {
  ns::Simulation<float, 1> sim(fixture_->mesh, fixture_->mats, makeCfg(GetParam()));
  attachInputs(sim);
  sim.run(kEndTime);
  expectBitwise(*reference_, sim, elements(), dofs());
}

INSTANTIATE_TEST_SUITE_P(
    Threads, FloatEnvThreads, ::testing::Values<int_t>(1, 2, 8),
    [](const ::testing::TestParamInfo<FloatEnvThreads::ParamType>& info) {
      return std::to_string(info.param) + "threads";
    });

class FloatEnvRanks : public FloatEnv, public ::testing::WithParamInterface<npar::Transport> {};

TEST_P(FloatEnvRanks, TwoRanksBitwiseVsSingleRank) {
  npar::DistConfig dcfg;
  dcfg.sim = makeCfg(1);
  dcfg.transport = GetParam();
  npar::DistributedSimulation<float, 1> dist(fixture_->mesh, fixture_->mats, twoRanks(), dcfg);
  ASSERT_EQ(dist.ranks(), 2);
  attachInputs(dist);
  dist.run(kEndTime);
  expectBitwise(*reference_, dist, elements(), dofs());
}

INSTANTIATE_TEST_SUITE_P(
    Transports, FloatEnvRanks, ::testing::Values(npar::Transport::kSeq, npar::Transport::kThread),
    [](const ::testing::TestParamInfo<FloatEnvRanks::ParamType>& info) {
      return npar::transportName(info.param);
    });
