// The paper's deterministic claims as executable checks (ctest label
// `paper`). Each case recomputes one number of a figure or section through
// the same library calls a reproduction makes and pins today's value:
// integers exactly, ratios to their last quoted digit. A change that moves
// one of them must re-pin it on purpose. docs/ARCHITECTURE.md "Reproducing
// paper results" lists every pinned value next to the paper's and names the
// cause of each gap. The meshes are the rules of bench/bench_common.hpp, the
// same ones tab1_performance runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cli/scenario.hpp"
#include "lts/clustering.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "solver/simulation.hpp"

namespace nb = nglts::bench;
namespace nc = nglts::cli;
namespace nl = nglts::lts;
namespace np = nglts::partition;
namespace ns = nglts::solver;
using nglts::idx_t;
using nglts::int_t;

namespace {

/// Per-element CFL steps at the order of Figs. 4, 5 and 7 (O = 5).
std::vector<double> cflSteps(const nglts::mesh::TetMesh& mesh,
                             const std::vector<nglts::physics::Material>& materials) {
  return nl::cflTimeSteps(nglts::mesh::computeGeometry(mesh), materials, 5);
}

double minOf(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

idx_t countInRange(const std::vector<double>& dt, double lo, double hi) {
  const double dtMin = minOf(dt);
  return std::count_if(dt.begin(), dt.end(), [&](double v) {
    return v / dtMin >= lo && v / dtMin < hi;
  });
}

} // namespace

// -- Fig. 4: LOH.3 time-step density and rate-2 clustering -------------------

TEST(PaperFig4, Loh3ClusteringAtLambdaOneAndPointEight) {
  const nb::Loh3Scenario sc;
  ASSERT_EQ(sc.mesh.numElements(), 5082);
  const auto dt = cflSteps(sc.mesh, sc.materials);

  const auto c10 = nl::buildClustering(sc.mesh, dt, 3, 1.0);
  EXPECT_EQ(c10.clusterSize, (std::vector<idx_t>{169, 4389, 524}));
  EXPECT_NEAR(c10.theoreticalSpeedup, 2.04, 0.005);
  const auto c08 = nl::buildClustering(sc.mesh, dt, 3, 0.8);
  EXPECT_EQ(c08.clusterSize, (std::vector<idx_t>{62, 2963, 2057}));
  EXPECT_NEAR(c08.theoreticalSpeedup, 1.98, 0.005);

  // The hand arithmetic of the docs: GTS cost 5,082 against the LTS cost
  // sum_l n_l / (step_l / dtMin) = 2,494.5 at lambda 1.0 and 2,572.1875 at
  // lambda 0.8. Lowering lambda raises the cost, so the speedup falls
  // (paper: it rises, 2.28x -> 2.67x).
  EXPECT_NEAR(c10.theoreticalSpeedup, 5082.0 / 2494.5, 1e-12);
  EXPECT_NEAR(c08.theoreticalSpeedup, 5082.0 / 2572.1875, 1e-12);

  // Neighbor-rate normalization moves no element at either lambda, so it
  // costs nothing here (paper: under 1.5 %).
  EXPECT_EQ(c10.normalizationMoves, 0);
  EXPECT_EQ(c08.normalizationMoves, 0);
}

TEST(PaperFig4, Loh3DtDensityHasOnePeak) {
  const nb::Loh3Scenario sc;
  const auto dt = cflSteps(sc.mesh, sc.materials);
  // Fig. 4's solid line: elements per dtMin/3-wide bin of dt / dtMin.
  std::vector<idx_t> hist(24, 0);
  for (int_t b = 0; b < 24; ++b) hist[b] = countInRange(dt, b / 3.0, (b + 1) / 3.0);
  EXPECT_EQ(hist, (std::vector<idx_t>{0, 0, 0, 23, 54, 92, 225, 652, 1239, 1153, 726, 394,
                                      227, 104, 65, 40, 25, 24, 17, 8, 6, 4, 4, 0}));
  const auto peak = std::max_element(hist.begin(), hist.end());
  EXPECT_TRUE(std::is_sorted(hist.begin(), peak + 1));
  EXPECT_TRUE(std::is_sorted(peak, hist.end(), std::greater<>()));
  // 47 % of the elements sit between 2.67 and 3.33 dtMin. At lambda 0.8
  // the 2,856 elements between 2.0 and 3.2 dtMin fall from a 2.0 to a
  // 1.6 dtMin step; only the 107 between 1.6 and 2.0 dtMin gain.
  EXPECT_EQ(countInRange(dt, 8.0 / 3.0, 10.0 / 3.0), 2392);
  EXPECT_EQ(countInRange(dt, 2.0, 3.2), 2856);
  EXPECT_EQ(countInRange(dt, 1.6, 2.0), 107);
}

// Sec. V-A: the preprocessing lambda sweep and the user-chosen N_c.
TEST(PaperFig4, LambdaSweepAndClusterCount) {
  const nb::Loh3Scenario sc;
  const auto dt = cflSteps(sc.mesh, sc.materials);
  const auto sweep = nl::optimizeLambda(sc.mesh, dt, 3);
  EXPECT_NEAR(sweep.bestLambda, 0.63, 1e-9);
  EXPECT_NEAR(sweep.bestSpeedup, 2.21, 0.005);
  ASSERT_EQ(sweep.lambdas.size(), 50u);
  EXPECT_NEAR(sweep.lambdas.back(), 1.0, 1e-9);
  EXPECT_EQ(sweep.speedups.back(),
            nl::buildClustering(sc.mesh, dt, 3, 1.0).theoreticalSpeedup);

  // Best swept speedup per cluster count: it saturates at N_c = 4, where
  // the last cluster already holds the slowest element.
  const double best[] = {1.000, 1.936, 2.215, 2.238, 2.238, 2.238};
  for (int_t n = 1; n <= 6; ++n)
    EXPECT_NEAR(nl::optimizeLambda(sc.mesh, dt, n).bestSpeedup, best[n - 1], 5e-4)
        << "N_c " << n;
}

// -- Fig. 5: La Habra-like clustering ----------------------------------------

TEST(PaperFig5, LaHabraSweptClustering) {
  const nb::LaHabraScenario sc;
  ASSERT_EQ(sc.mesh.numElements(), 590304);
  const auto dt = cflSteps(sc.mesh, sc.materials);
  EXPECT_NEAR(*std::max_element(dt.begin(), dt.end()) / minOf(dt), 16.68, 0.005);
  const auto sweep = nl::optimizeLambda(sc.mesh, dt, 5);
  EXPECT_NEAR(sweep.bestLambda, 0.68, 1e-9);
  const auto c = nl::buildClustering(sc.mesh, dt, 5, sweep.bestLambda);
  EXPECT_EQ(c.clusterSize, (std::vector<idx_t>{1074, 77997, 250025, 248939, 12269}));
  EXPECT_NEAR(c.theoreticalSpeedup, 2.99, 0.005);
}

// -- Fig. 7: LTS-weighted partitions -----------------------------------------

TEST(PaperFig7, WeightedPartitionBalancesWork) {
  // Scale 0.5: at scale 1 partitioning alone takes 15 s.
  const nb::LaHabraScenario sc(0.5);
  ASSERT_EQ(sc.mesh.numElements(), 68112);
  const auto dt = cflSteps(sc.mesh, sc.materials);
  const auto sweep = nl::optimizeLambda(sc.mesh, dt, 5);
  EXPECT_NEAR(sweep.bestLambda, 0.64, 1e-9);
  const auto clustering = nl::buildClustering(sc.mesh, dt, 5, sweep.bestLambda);
  const auto gw = np::buildPartitionGraph(sc.mesh, clustering, np::PartitionWeighting::kWeighted);
  const auto gu =
      np::buildPartitionGraph(sc.mesh, clustering, np::PartitionWeighting::kUnweighted);

  struct Row {
    int_t parts;
    double weighted, unweighted, spread;
  };
  // Both partitions scored under the weighted (LTS work) metric; the
  // spread is max/min elements per part of the weighted partition (paper:
  // 2.2x at 48 parts, 4.12x at 2,048).
  for (const Row& r : {Row{8, 1.0000, 1.1297, 1.265}, Row{48, 1.0002, 1.4040, 1.882}}) {
    const auto w = np::partitionGraph(gw, sc.mesh, r.parts);
    const auto u = np::partitionGraph(gu, sc.mesh, r.parts);
    EXPECT_NEAR(np::measureImbalance(gw, w.part, r.parts), r.weighted, 5e-5) << r.parts;
    EXPECT_NEAR(np::measureImbalance(gw, u.part, r.parts), r.unweighted, 5e-5) << r.parts;
    EXPECT_NEAR(w.elementSpread(), r.spread, 5e-4) << r.parts;
  }
}

// -- Sec. V-C: communication payloads ----------------------------------------

TEST(PaperSecVC, FaceLocalPayloadIsFOverB) {
  // Values per element at O = 5: the anelastic derivative scheme of [15]
  // cannot trim its O derivatives, 5 * 9 * 35 = 1,575 values; a buffer is
  // 9 x B = 315 values and its face-local projection 9 x F = 135.
  constexpr int_t kOrder = 5;
  EXPECT_EQ(nglts::numBasis3d(kOrder), 35);
  EXPECT_EQ(nglts::numBasis2d(kOrder), 15);
  EXPECT_EQ(kOrder * nglts::kElasticVars * nglts::numBasis3d(kOrder), 1575);

  // Analytic bytes per LTS cycle, f32, the LOH.3 mesh split at x = 4,000 m.
  const nb::Loh3Scenario sc;
  std::vector<int_t> part(sc.mesh.numElements());
  for (idx_t e = 0; e < sc.mesh.numElements(); ++e) part[e] = sc.mesh.centroid(e)[0] > 4000.0;
  auto engine = [&](ns::TimeScheme scheme) {
    ns::SimConfig cfg;
    cfg.order = kOrder;
    cfg.mechanisms = 3;
    cfg.scheme = scheme;
    cfg.numClusters = 3;
    return ns::Simulation<float, 1>(sc.mesh, sc.materials, cfg);
  };
  const auto nextGen = engine(ns::TimeScheme::kLtsNextGen);
  const std::uint64_t faceLocal = nextGen.cycleCommBytes(part, true);
  const std::uint64_t raw = nextGen.cycleCommBytes(part, false);
  EXPECT_EQ(faceLocal, 372600u);
  EXPECT_EQ(raw, 869400u);
  EXPECT_EQ(engine(ns::TimeScheme::kLtsBaseline).cycleCommBytes(part, false), 4120200u);
  EXPECT_EQ(faceLocal * 35, raw * 15); // exactly F / B
}

// -- Sec. VII-B: the cost of anelasticity ------------------------------------

TEST(PaperSecVIIB, AnelasticFlopsPerUpdate) {
  // Flops per element update over one LTS cycle of the LOH.3 setting at
  // O = 4, three mechanisms over elastic (paper: about 1.8x in time).
  auto cycle = [](int_t mechanisms) {
    nb::Loh3Scenario sc(1.0, mechanisms);
    ns::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = mechanisms;
    cfg.scheme = ns::TimeScheme::kLtsNextGen;
    cfg.numClusters = 3;
    cfg.attenuationFreq = 1.0;
    cfg.numThreads = 1;
    ns::Simulation<float, 1> sim(std::move(sc.mesh), std::move(sc.materials), cfg);
    return sim.runCycles(1);
  };
  const auto elastic = cycle(0);
  const auto anelastic = cycle(3);
  EXPECT_EQ(elastic.elementUpdates, 9972u);
  EXPECT_EQ(elastic.flops, 1222792092u);
  EXPECT_EQ(anelastic.elementUpdates, 9978u);
  EXPECT_EQ(anelastic.flops, 2320740300u);
  const double perUpdateE = static_cast<double>(elastic.flops) / elastic.elementUpdates;
  const double perUpdateA = static_cast<double>(anelastic.flops) / anelastic.elementUpdates;
  EXPECT_NEAR(perUpdateE, 122622.6, 0.05);
  EXPECT_NEAR(perUpdateA, 232585.7, 0.05);
  EXPECT_NEAR(perUpdateA / perUpdateE, 1.897, 5e-4);
}

// -- Counter gate: exact work of the benchmark scenarios ---------------------

namespace {

struct Counts {
  std::uint64_t cycles, elementUpdates, flops;
  std::vector<idx_t> clusterHistogram;
  std::uint64_t messages, commBytes; ///< halo exchange; 0 on one rank
};

/// Run a built-in scenario at smoke scale on one thread per rank.
nc::ScenarioReport runQuiet(const std::string& name, nc::ScenarioOptions opts) {
  const nc::Scenario* s = nc::findScenario(name);
  if (s == nullptr) throw std::invalid_argument("no scenario " + name);
  opts.threads = 1;
  opts.quiet = true;
  return s->run(opts);
}

/// Compare a scenario's deterministic work and exchange counters. A
/// schedule, clustering, partition, payload or flop-accounting change shows
/// up here as an exact diff.
void expectCounts(const std::string& name, const nc::ScenarioOptions& opts, const Counts& want) {
  const nc::ScenarioReport r = runQuiet(name, opts);
  EXPECT_EQ(r.stats.cycles, want.cycles) << name;
  EXPECT_EQ(r.stats.elementUpdates, want.elementUpdates) << name;
  EXPECT_EQ(r.stats.flops, want.flops) << name;
  EXPECT_EQ(r.clusterHistogram, want.clusterHistogram) << name;
  EXPECT_EQ(r.stats.messages, want.messages) << name;
  EXPECT_EQ(r.stats.commBytes, want.commBytes) << name;

  // The work does not depend on the split: one rank counts the same.
  if (opts.ranks.value_or(1) == 1) return;
  nc::ScenarioOptions one = opts;
  one.ranks = 1;
  const nc::ScenarioReport r1 = runQuiet(name, one);
  EXPECT_EQ(r1.stats.cycles, want.cycles) << name << " on one rank";
  EXPECT_EQ(r1.stats.elementUpdates, want.elementUpdates) << name << " on one rank";
  EXPECT_EQ(r1.stats.flops, want.flops) << name << " on one rank";
  EXPECT_EQ(r1.clusterHistogram, want.clusterHistogram) << name << " on one rank";
}

} // namespace

TEST(PaperCounters, Quickstart) {
  nc::ScenarioOptions opts;
  opts.meshScale = 0.4;
  opts.order = 3;
  opts.endTime = 0.3;
  expectCounts("quickstart", opts, {62, 43586, 3255681690u, {14, 277, 93}, 0, 0});
}

TEST(PaperCounters, Loh1TwoRanks) {
  nc::ScenarioOptions opts;
  opts.ranks = 2;
  opts.endTime = 0.05;
  expectCounts("loh1", opts, {11, 4928, 589150368u, {16, 416}, 110, 1956240});
}

TEST(PaperCounters, FusedEight) {
  nc::ScenarioOptions opts;
  opts.fusedWidth = 8;
  opts.meshScale = 0.45;
  opts.endTime = 0.1;
  expectCounts("fused", opts, {9, 12087, 14385346128u, {288, 95, 1}, 0, 0});
}

TEST(PaperCounters, LaHabraTwoRanks) {
  nc::ScenarioOptions opts;
  opts.ranks = 2;
  opts.meshScale = 0.5;
  opts.endTime = 0.05;
  expectCounts("lahabra", opts, {3, 20295, 4587148620u, {106, 1122, 713, 3}, 156, 1365120});
}
