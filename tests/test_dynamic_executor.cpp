// Differential suite of the dynamic work-stealing executor mode (ISSUE 9):
// the static schedule is the bitwise reference every other mode is A/B'd
// against. For every scheme {gts, lts, baseline} x fused width {1, 2} x
// thread count {2, 8}, `--executor dynamic` must produce bitwise-identical
// seismograms, DOFs and exact flop totals — chunks are the indivisible
// scheduling unit, each with its own workspace, so steal timing can never
// change a result. The randomized stress case injects adversarial per-chunk
// delays through the executor's test seam to force pathological steal
// interleavings and repeats the same assertion; the distributed case covers
// the overlapped exchange's interior and halo-boundary sub-range calls.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <tuple>

#include "mesh/box_gen.hpp"
#include "parallel/dist_sim.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Fixture {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

/// Same two-velocity-layer box as the threaded-equivalence suite: genuine
/// multi-cluster LTS behaviour at test size, so the steal queues really see
/// per-cluster ranges of different lengths.
Fixture makeFixture(int_t mechanisms, idx_t n = 4) {
  Fixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  f.mesh = nm::generateBox(spec);
  f.mats.resize(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double vs = f.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    if (mechanisms > 0)
      f.mats[e] = np::viscoElasticMaterial(2600.0, vs * std::sqrt(3.0), vs, 120.0, 40.0,
                                           mechanisms, 0.6);
    else
      f.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return f;
}

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t threads, ns::ExecutorMode mode) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = 1.0;
  cfg.numThreads = threads;
  cfg.executorMode = mode;
  return cfg;
}

void initWave(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 450.0) * (x[0] - 450.0) + (x[1] - 500.0) * (x[1] - 500.0) +
                    (x[2] - 500.0) * (x[2] - 500.0);
  q9[nglts::kVelU] = std::exp(-r2 / (200.0 * 200.0));
}

template <typename Sim, int W>
void addSetup(Sim& sim) {
  std::vector<double> laneScale(W);
  for (int w = 0; w < W; ++w) laneScale[w] = 1.0 + 1.5 * w; // lanes must differ
  auto stf = std::make_shared<nsei::RickerWavelet>(0.6, 0.5);
  sim.addPointSource(
      nsei::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf), laneScale);
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

template <typename SimA, typename SimB>
void expectBitwiseSeismograms(const SimA& a, const SimB& b, int_t lanes) {
  for (int_t lane = 0; lane < lanes; ++lane) {
    const nsei::Seismogram& ta = a.receiver(0).traces[lane];
    const nsei::Seismogram& tb = b.receiver(0).traces[lane];
    ASSERT_GT(ta.size(), 0u) << "reference recorded nothing";
    ASSERT_EQ(ta.size(), tb.size()) << "lane " << lane;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.times[i], tb.times[i]) << "lane " << lane << " sample " << i;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(ta.values[i][v], tb.values[i][v])
            << "lane " << lane << " sample " << i << " quantity " << v;
    }
  }
}

template <typename SimA, typename SimB>
void expectBitwiseDofs(const SimA& a, const SimB& b, idx_t numElements, std::size_t dofs) {
  for (idx_t e = 0; e < numElements; ++e) {
    const double* qa = a.dofs(e);
    const double* qb = b.dofs(e);
    for (std::size_t i = 0; i < dofs; ++i)
      ASSERT_EQ(qa[i], qb[i]) << "element " << e << " dof " << i;
  }
}

/// Static reference vs dynamic run at the same thread count: bitwise
/// seismograms, bitwise DOFs, and exact flop parity (the per-chunk uint64
/// counters sum to the same total no matter which thread ran which chunk).
template <int W>
void runExecutorDifferential(ns::TimeScheme scheme, int_t threads) {
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, W> ref(f.mesh, f.mats,
                                makeCfg(scheme, threads, ns::ExecutorMode::kStatic));
  addSetup<ns::Simulation<double, W>, W>(ref);
  ref.setInitialCondition(initWave);
  const ns::PerfStats stRef = ref.run(tEnd);

  ns::Simulation<double, W> dyn(f.mesh, f.mats,
                                makeCfg(scheme, threads, ns::ExecutorMode::kDynamic));
  addSetup<ns::Simulation<double, W>, W>(dyn);
  dyn.setInitialCondition(initWave);
  const ns::PerfStats stDyn = dyn.run(tEnd);

  EXPECT_EQ(stRef.cycles, stDyn.cycles);
  EXPECT_EQ(stRef.elementUpdates, stDyn.elementUpdates);
  EXPECT_EQ(stRef.flops, stDyn.flops) << "flop totals must match exactly";
  expectBitwiseSeismograms(ref, dyn, W);
  expectBitwiseDofs(ref, dyn, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

} // namespace

class DynamicExecutor
    : public ::testing::TestWithParam<std::tuple<ns::TimeScheme, int_t>> {};

TEST_P(DynamicExecutor, BitwiseVsStatic) {
  const auto [scheme, threads] = GetParam();
  runExecutorDifferential<1>(scheme, threads);
}

TEST_P(DynamicExecutor, BitwiseVsStaticFusedW2) {
  const auto [scheme, threads] = GetParam();
  runExecutorDifferential<2>(scheme, threads);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByThreads, DynamicExecutor,
    ::testing::Combine(::testing::Values(ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen,
                                         ns::TimeScheme::kLtsBaseline),
                       ::testing::Values<int_t>(2, 8)),
    [](const ::testing::TestParamInfo<DynamicExecutor::ParamType>& info) {
      const char* scheme = std::get<0>(info.param) == ns::TimeScheme::kGts ? "gts"
                           : std::get<0>(info.param) == ns::TimeScheme::kLtsNextGen
                               ? "lts"
                               : "baseline";
      return std::string(scheme) + "_x" + std::to_string(std::get<1>(info.param)) +
             "threads";
    });

TEST(DynamicExecutorExtra, ThreadsExceedingElementsBitwise) {
  // 64 threads -> 256 chunks over clusters far smaller than that: empty
  // chunks and all-thief queues must be harmless.
  runExecutorDifferential<1>(ns::TimeScheme::kLtsNextGen, 64);
}

TEST(DynamicExecutorStress, RandomizedStealTimingStaysBitwise) {
  // Adversarial steal timing: a per-chunk delay injected through the
  // executor's test seam perturbs which thread wins each claim race, across
  // N repeats with different pseudo-random delay patterns and thread
  // counts. Every repeat must reproduce the static reference bit for bit.
  const int_t kRepeats = 6;
  const std::uint64_t kCycles = 3;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(
      f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 1, ns::ExecutorMode::kStatic));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  const ns::PerfStats stRef = ref.runCycles(kCycles);

  for (int_t rep = 0; rep < kRepeats; ++rep) {
    const int_t threads = 2 + rep % 7;
    ns::Simulation<double, 1> dyn(
        f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, threads,
                                ns::ExecutorMode::kDynamic));
    addSetup<ns::Simulation<double, 1>, 1>(dyn);
    dyn.setInitialCondition(initWave);
    // Stateless mixing of (repeat, chunk) into a 0..120 us sleep: the hook
    // runs concurrently on all threads, so it must not share mutable state.
    dyn.setChunkDelayHook([rep](int_t chunk) {
      std::uint64_t h = static_cast<std::uint64_t>(chunk) * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(rep) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
      std::this_thread::sleep_for(std::chrono::microseconds(h % 121));
    });
    const ns::PerfStats stDyn = dyn.runCycles(kCycles);

    EXPECT_EQ(stRef.flops, stDyn.flops) << "repeat " << rep;
    expectBitwiseSeismograms(ref, dyn, 1);
    expectBitwiseDofs(ref, dyn, f.mesh.numElements(), ref.kernels().dofsPerElement());
  }
}

TEST(DynamicExecutorDistributed, OverlapDynamicBitwiseVsSingleRankStatic) {
  // A 2-rank overlapped exchange with the dynamic executor (each op stolen
  // as its interior and halo-boundary sub-ranges) vs the 1-rank 1-thread
  // static reference.
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(
      f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 1, ns::ExecutorMode::kStatic));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  std::vector<int_t> part(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e)
    part[e] = f.mesh.centroid(e)[0] < 500.0 ? 0 : 1;
  npar::DistConfig dcfg;
  dcfg.sim = makeCfg(ns::TimeScheme::kLtsNextGen, 2, ns::ExecutorMode::kDynamic);
  dcfg.overlap = true;
  npar::DistributedSimulation<double, 1> dist(f.mesh, f.mats, part, dcfg);
  ASSERT_EQ(dist.ranks(), 2);
  addSetup<npar::DistributedSimulation<double, 1>, 1>(dist);
  dist.setInitialCondition(initWave);
  dist.run(tEnd);

  expectBitwiseSeismograms(ref, dist, 1);
  expectBitwiseDofs(ref, dist, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

TEST(DynamicExecutorConfig, ParseAndNameRoundTrip) {
  EXPECT_EQ(ns::parseExecutorMode("static"), ns::ExecutorMode::kStatic);
  EXPECT_EQ(ns::parseExecutorMode("dynamic"), ns::ExecutorMode::kDynamic);
  EXPECT_STREQ(ns::executorModeName(ns::ExecutorMode::kStatic), "static");
  EXPECT_STREQ(ns::executorModeName(ns::ExecutorMode::kDynamic), "dynamic");
  EXPECT_THROW(ns::parseExecutorMode("workstealing"), std::invalid_argument);
  EXPECT_THROW(ns::parseExecutorMode(""), std::invalid_argument);
}

TEST(DynamicExecutorConfig, ChunkCountAndWorkspacesFollowMode) {
  Fixture f = makeFixture(0, /*n=*/2);
  ns::Simulation<double, 1> dyn(
      f.mesh, f.mats, makeCfg(ns::TimeScheme::kGts, 3, ns::ExecutorMode::kDynamic));
  EXPECT_EQ(dyn.config().executorMode, ns::ExecutorMode::kDynamic);
  EXPECT_EQ(ns::dynamicChunkCount(3), 3 * ns::kStealChunksPerThread);
}
