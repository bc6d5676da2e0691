// Equivalence suite of the thread-parallel StepExecutor (ISSUE 4 tentpole):
// for every scheme {gts, lts, baseline} x thread count {1, 2, 8} x fused
// width {1, 2}, the threaded run must be *bitwise identical* to the
// single-thread run — seismograms and DOFs. The executor cuts every
// schedule op's cluster range into SimConfig::numThreads static chunks and
// each element is updated by exactly one chunk with chunk-private scratch,
// so no tolerance is needed; any drift is a chunking/workspace bug. Also
// covered: the hybrid ranks x threads distributed run (lockstep and
// overlapped) vs the 1-rank 1-thread reference, and the numThreads
// validation.
#include <gtest/gtest.h>

#include <cmath>
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

/// Small two-velocity-layer box with genuine multi-cluster LTS behaviour
/// (the quickstart setting, shrunk to test size).
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

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t mechanisms, int_t threads) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = 1.0;
  cfg.attenuationFreq = 0.6;
  cfg.numThreads = threads;
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

/// 1-thread reference vs `threads`-thread run of the same Simulation:
/// bitwise seismograms and DOFs.
template <int W>
void runThreadEquivalence(ns::TimeScheme scheme, int_t threads, int_t mechanisms) {
  const double tEnd = 0.2;
  Fixture f = makeFixture(mechanisms);

  ns::Simulation<double, W> ref(f.mesh, f.mats, makeCfg(scheme, mechanisms, /*threads=*/1));
  addSetup<ns::Simulation<double, W>, W>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  ns::Simulation<double, W> thr(f.mesh, f.mats, makeCfg(scheme, mechanisms, threads));
  addSetup<ns::Simulation<double, W>, W>(thr);
  thr.setInitialCondition(initWave);
  thr.run(tEnd);

  expectBitwiseSeismograms(ref, thr, W);
  expectBitwiseDofs(ref, thr, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

} // namespace

class ThreadedEquivalence
    : public ::testing::TestWithParam<std::tuple<ns::TimeScheme, int_t>> {};

TEST_P(ThreadedEquivalence, BitwiseVsSingleThread) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<1>(scheme, threads, /*mechanisms=*/0);
}

TEST_P(ThreadedEquivalence, BitwiseVsSingleThreadFusedW2) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<2>(scheme, threads, /*mechanisms=*/0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByThreads, ThreadedEquivalence,
    ::testing::Combine(::testing::Values(ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen,
                                         ns::TimeScheme::kLtsBaseline),
                       ::testing::Values<int_t>(2, 8)),
    [](const ::testing::TestParamInfo<ThreadedEquivalence::ParamType>& info) {
      const char* scheme = std::get<0>(info.param) == ns::TimeScheme::kGts ? "gts"
                           : std::get<0>(info.param) == ns::TimeScheme::kLtsNextGen
                               ? "lts"
                               : "baseline";
      return std::string(scheme) + "_x" + std::to_string(std::get<1>(info.param)) +
             "threads";
    });

TEST(ThreadedEquivalenceExtra, AnelasticBitwiseVsSingleThread) {
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 8, /*mechanisms=*/3);
}

TEST(ThreadedEquivalenceExtra, ThreadsExceedingElementsBitwise) {
  // More chunks than some cluster has elements: empty chunks must be
  // harmless (staticChunk yields empty ranges) and the result bitwise.
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 64, /*mechanisms=*/0);
}

TEST(ThreadedEquivalenceExtra, HybridRanksTimesThreadsBitwiseVs1x1) {
  // The executor's OpenMP teams nested inside ThreadComm rank threads
  // (--ranks x --threads) vs the 1-rank 1-thread shared-memory reference,
  // lockstep and overlapped: under --overlap each op runs as its interior
  // and halo-boundary sub-ranges, each cut into 2 static chunks.
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 0, 1));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  std::vector<int_t> part(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e)
    part[e] = f.mesh.centroid(e)[0] < 500.0 ? 0 : 1;
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap" : "lockstep");
    npar::DistConfig dcfg;
    dcfg.sim = makeCfg(ns::TimeScheme::kLtsNextGen, 0, /*threads=*/2);
    dcfg.transport = npar::Transport::kThread; // rank std::threads, each forking a 2-thread team
    dcfg.overlap = overlap;
    npar::DistributedSimulation<double, 1> dist(f.mesh, f.mats, part, dcfg);
    ASSERT_EQ(dist.ranks(), 2);
    addSetup<npar::DistributedSimulation<double, 1>, 1>(dist);
    dist.setInitialCondition(initWave);
    dist.run(tEnd);

    expectBitwiseSeismograms(ref, dist, 1);
    expectBitwiseDofs(ref, dist, f.mesh.numElements(), ref.kernels().dofsPerElement());
  }
}

TEST(ThreadedConfig, RejectsNonPositiveThreadCounts) {
  ns::SimConfig cfg = makeCfg(ns::TimeScheme::kGts, 0, 0);
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  cfg.numThreads = -2;
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  Fixture f = makeFixture(0, /*n=*/2);
  EXPECT_THROW((ns::Simulation<double, 1>(f.mesh, f.mats, cfg)), std::invalid_argument);
  cfg.numThreads = 1;
  EXPECT_NO_THROW(ns::validateSimConfig(cfg));
}

TEST(ThreadedConfig, StaticChunkCoversRangeExactlyOnce) {
  // The chunk map partitions any range: concatenated chunks reproduce
  // [begin, end) in order, for teams larger and smaller than the range.
  for (idx_t n : {0, 1, 5, 64, 1000})
    for (int_t t : {1, 2, 3, 8, 64}) {
      idx_t expect = 17; // arbitrary non-zero begin
      for (int_t c = 0; c < t; ++c) {
        const ns::ChunkRange r = ns::staticChunk(17, 17 + n, t, c);
        EXPECT_EQ(r.begin, expect);
        EXPECT_LE(r.begin, r.end);
        expect = r.end;
      }
      EXPECT_EQ(expect, 17 + n);
    }
}
