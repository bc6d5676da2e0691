#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pre/config_hash.hpp"
#include "pre/pipeline.hpp"
#include "solver/simulation.hpp"

namespace npre = nglts::pre;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

npre::PipelineConfig smallConfig() {
  npre::PipelineConfig cfg;
  cfg.lo = {0.0, 0.0, -2000.0};
  cfg.hi = {3000.0, 3000.0, 0.0};
  cfg.maxFrequency = 1.0;
  cfg.elementsPerWavelength = 0.7; // coarse: keeps the test fast
  cfg.minEdge = 200.0;
  cfg.order = 3;
  cfg.mechanisms = 3;
  cfg.numClusters = 3;
  cfg.numPartitions = 3;
  return cfg;
}

} // namespace

TEST(Pipeline, EndToEndProducesConsistentArtifacts) {
  const nsei::Loh3Model model(0.0);
  const auto res = npre::runPipeline(model, smallConfig());

  const idx_t n = res.mesh.numElements();
  ASSERT_GT(n, 0);
  EXPECT_EQ(static_cast<idx_t>(res.materials.size()), n);
  EXPECT_EQ(static_cast<idx_t>(res.dtCfl.size()), n);
  EXPECT_EQ(static_cast<idx_t>(res.clustering.cluster.size()), n);
  EXPECT_NO_THROW(nglts::mesh::checkConnectivity(res.mesh));

  // Lambda sweep ran and picked a legal value.
  EXPECT_GT(res.lambdaSweep.bestLambda, 0.5);
  EXPECT_LE(res.lambdaSweep.bestLambda, 1.0);
  EXPECT_DOUBLE_EQ(res.clustering.lambda, res.lambdaSweep.bestLambda);

  // Every element is assigned to one of the partitions.
  ASSERT_EQ(static_cast<idx_t>(res.parts.part.size()), n);
  for (const int_t p : res.parts.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, res.parts.numParts);
  }
  EXPECT_FALSE(res.summary().empty());
}

TEST(Pipeline, VelocityAwareMeshIsFinerInSlowLayer) {
  const nsei::Loh3Model model(0.0);
  auto cfg = smallConfig();
  // Resolve 4 Hz so the layer/halfspace wavelength contrast is meshable
  // within the 2 km domain (the coarse default hides the grading).
  cfg.maxFrequency = 4.0;
  cfg.elementsPerWavelength = 1.0;
  cfg.minEdge = 100.0;
  cfg.numPartitions = 1;
  const auto res = npre::runPipeline(model, cfg);
  // Average element volume in the (slow) layer must be smaller than in the
  // (fast) halfspace.
  const auto geo = nglts::mesh::computeGeometry(res.mesh);
  double volLayer = 0.0, volHalf = 0.0;
  idx_t nLayer = 0, nHalf = 0;
  for (idx_t e = 0; e < res.mesh.numElements(); ++e) {
    if (res.mesh.centroid(e)[2] > -1000.0) {
      volLayer += geo[e].volume;
      ++nLayer;
    } else {
      volHalf += geo[e].volume;
      ++nHalf;
    }
  }
  ASSERT_GT(nLayer, 0);
  ASSERT_GT(nHalf, 0);
  EXPECT_LT(volLayer / nLayer, 0.8 * volHalf / nHalf);
}

TEST(Pipeline, OutputRunsInSolver) {
  const nsei::Loh3Model model(0.0);
  const auto res = npre::runPipeline(model, smallConfig());
  nglts::solver::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = 3;
  cfg.scheme = nglts::solver::TimeScheme::kLtsNextGen;
  cfg.numClusters = 3;
  cfg.lambda = res.clustering.lambda;
  cfg.attenuationFreq = 1.0;
  nglts::solver::Simulation<float, 1> sim(res.mesh, res.materials, cfg);
  sim.setInitialCondition([](const std::array<double, 3>&, int_t, double* q9) {
    for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  });
  const auto st = sim.run(2.0 * sim.cycleDt());
  EXPECT_GT(st.cycles, 0u);
}

// ---------------------------------------------------------------------------
// Config key (pre/config_hash.hpp). The key is the pipeline's ingredient of
// the batch checkpoint fingerprint, so its value is a golden contract: the
// rows below pin the exact FNV-1a digests. If one of these changes, either
// the hash algorithm or the field order changed — both invalidate persisted
// snapshots and must be deliberate (bump batch::kSnapshotVersion and
// re-pin).
// ---------------------------------------------------------------------------

TEST(PipelineConfigKey, GoldenValuesArePinned) {
  EXPECT_EQ(npre::pipelineConfigKey(npre::PipelineConfig{}), UINT64_C(13763504399294597581));
  EXPECT_EQ(npre::pipelineConfigKey(smallConfig()), UINT64_C(9462174098186013762));
}

TEST(PipelineConfigKey, EveryResultShapingFieldPerturbsTheKey) {
  // One mutator per field that shapes a PipelineResult. Each must produce a
  // key different from the base AND from every other mutation (a field the
  // hash silently ignored would let two configs share one identity).
  using Mut = std::function<void(npre::PipelineConfig&)>;
  const std::vector<std::pair<std::string, Mut>> mutations = {
      {"lo[0]", [](auto& c) { c.lo[0] = 1.0; }},
      {"lo[1]", [](auto& c) { c.lo[1] = 1.0; }},
      {"lo[2]", [](auto& c) { c.lo[2] = 1.0; }},
      {"hi[0]", [](auto& c) { c.hi[0] = 999.0; }},
      {"hi[1]", [](auto& c) { c.hi[1] = 999.0; }},
      {"hi[2]", [](auto& c) { c.hi[2] = 999.0; }},
      {"elementsPerWavelength", [](auto& c) { c.elementsPerWavelength = 2.5; }},
      {"maxFrequency", [](auto& c) { c.maxFrequency = 1.5; }},
      {"minEdge", [](auto& c) { c.minEdge = 20.0; }},
      {"maxEdge", [](auto& c) { c.maxEdge = 1e8; }},
      {"jitter", [](auto& c) { c.jitter = 0.05; }},
      {"order", [](auto& c) { c.order = 5; }},
      {"mechanisms", [](auto& c) { c.mechanisms = 1; }},
      {"cfl", [](auto& c) { c.cfl = 0.4; }},
      {"numClusters", [](auto& c) { c.numClusters = 4; }},
      {"autoLambda", [](auto& c) { c.autoLambda = false; }},
      {"lambda (sweep off)",
       [](auto& c) {
         c.autoLambda = false;
         c.lambda = 0.8;
       }},
      {"numPartitions", [](auto& c) { c.numPartitions = 2; }},
      {"freeSurfaceTop", [](auto& c) { c.freeSurfaceTop = false; }},
  };

  const npre::PipelineConfig base;
  const std::uint64_t baseKey = npre::pipelineConfigKey(base);
  std::map<std::uint64_t, std::string> seen{{baseKey, "base"}};
  for (const auto& [name, mutate] : mutations) {
    npre::PipelineConfig cfg = base;
    mutate(cfg);
    const std::uint64_t key = npre::pipelineConfigKey(cfg);
    EXPECT_NE(key, baseKey) << "field ignored by the config key: " << name;
    const auto [it, inserted] = seen.emplace(key, name);
    EXPECT_TRUE(inserted) << name << " collides with " << it->second;
  }
  // The mesh file enters by its bytes (`fileContentKey`), never by its path.
  npre::PipelineConfig withFile = base;
  withFile.meshFile = "some/path.msh";
  EXPECT_EQ(npre::pipelineConfigKey(withFile), baseKey);
}

TEST(PipelineConfigKey, LambdaIsFoldedOutWhileTheSweepIsOn) {
  // With autoLambda on, the fixed lambda is ignored by the pipeline — two
  // configs differing only there must share an identity.
  npre::PipelineConfig a, b;
  a.autoLambda = b.autoLambda = true;
  a.lambda = 0.7;
  b.lambda = 0.9;
  EXPECT_EQ(npre::pipelineConfigKey(a), npre::pipelineConfigKey(b));
}

TEST(PipelineConfigKey, NegativeZeroFoldsToPositiveZero) {
  npre::PipelineConfig a = smallConfig();
  npre::PipelineConfig b = smallConfig();
  a.hi[2] = 0.0;
  b.hi[2] = -0.0;
  EXPECT_EQ(npre::pipelineConfigKey(a), npre::pipelineConfigKey(b));
}
