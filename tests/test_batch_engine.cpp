// Equivalence hardening for the ensemble batch engine: a batch of N
// requests must produce seismograms *bitwise-identical* to N independent
// runs (per-lane arithmetic is independent and identically ordered for
// every fused width), while executing the preprocessing pipeline once per
// distinct material scale. Covers {GTS, next-gen LTS} x fused widths
// {1, 2, 4}, pipeline build/reuse accounting, lane-packing plans for
// heterogeneous perturbations, the batch fingerprint, and the manifest
// parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "batch/batch_engine.hpp"
#include "batch/manifest.hpp"
#include "pre/pipeline.hpp"
#include "solver/simulation.hpp"

namespace nbatch = nglts::batch;
namespace npre = nglts::pre;
namespace nsol = nglts::solver;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

/// Coarse, fast base: the quickstart two-layer box at ~0.4x resolution
/// (192 elements), short end time.
nbatch::BatchConfig smallBatchConfig(nsol::TimeScheme scheme) {
  nbatch::BatchConfig cfg = nbatch::quickstartBatchConfig();
  cfg.sim.scheme = scheme;
  cfg.endTime = 0.2;
  cfg.pipeline.minEdge /= 0.4;
  cfg.pipeline.maxEdge /= 0.4;
  return cfg;
}

/// A deliberately heterogeneous ensemble: fusable source scales, one
/// material perturbation (splits the fused group), receiver offsets that
/// share the pipeline product.
std::vector<nbatch::ScenarioRequest> mixedRequests() {
  return {
      {"a", 1.0, 1.0, {0.0, 0.0, 0.0}},
      {"b", 1.5, 1.0, {20.0, 0.0, 0.0}},
      {"c", 0.5, 1.0, {0.0, -30.0, 0.0}},
      {"d", 2.0, 1.15, {0.0, 0.0, 0.0}},
      {"e", 1.25, 1.0, {0.0, 0.0, 10.0}},
  };
}

/// Ground truth: run one request through the *non-batched* path — the
/// production pipeline plus a W = 1 `Simulation` — mirroring what a user
/// script would do per ensemble member. No BatchEngine involvement.
nsei::Seismogram independentRun(const nbatch::BatchConfig& cfg,
                                const nbatch::ScenarioRequest& req) {
  npre::PipelineConfig p = cfg.pipeline;
  p.order = cfg.sim.order;
  p.mechanisms = cfg.sim.mechanisms;
  p.cfl = cfg.sim.cfl;
  const bool gts = cfg.sim.scheme == nsol::TimeScheme::kGts;
  p.numClusters = gts ? 1 : cfg.sim.numClusters;
  p.autoLambda = gts ? false : cfg.sim.autoLambda;
  p.lambda = cfg.sim.lambda;
  p.numPartitions = 1;

  const nsei::LayeredModel base = nbatch::quickstart::model();
  const nbatch::ScaledVelocityModel scaled(base, req.materialScale);
  const npre::PipelineResult pipe = npre::runPipeline(scaled, p);

  nsol::SimConfig rc = cfg.sim;
  rc.lambda = pipe.clustering.lambda;
  rc.autoLambda = false;
  nsol::Simulation<double, 1> sim(pipe.mesh, pipe.materials, rc);
  sim.addPointSource(nbatch::quickstart::source(), {req.sourceScale});
  const auto& at = nbatch::quickstart::kReceiverPosition;
  const idx_t rec = sim.addReceiver({at[0] + req.receiverOffset[0], at[1] + req.receiverOffset[1],
                                     at[2] + req.receiverOffset[2]});
  EXPECT_GE(rec, 0);
  sim.run(cfg.endTime);
  return sim.receiver(rec).traces[0];
}

void expectBitwiseEqual(const nsei::Seismogram& got, const nsei::Seismogram& want,
                        const std::string& label) {
  ASSERT_EQ(got.times.size(), want.times.size()) << label;
  for (std::size_t i = 0; i < got.times.size(); ++i) {
    ASSERT_EQ(got.times[i], want.times[i]) << label << " sample " << i;
    for (int_t v = 0; v < nglts::kElasticVars; ++v)
      ASSERT_EQ(got.values[i][v], want.values[i][v])
          << label << " sample " << i << " quantity " << v;
  }
}

std::vector<nbatch::RequestResult> runBatch(const nbatch::BatchConfig& cfg,
                                            const std::vector<nbatch::ScenarioRequest>& reqs,
                                            nbatch::BatchStats* statsOut = nullptr) {
  nbatch::BatchEngine engine(cfg);
  engine.add(reqs);
  std::vector<nbatch::RequestResult> results;
  const nbatch::BatchStats stats = engine.run(
      [&](const nbatch::RequestResult& r) { results.push_back(r); });
  if (statsOut) *statsOut = stats;
  return results;
}

} // namespace

// ---------------------------------------------------------------------------
// Batch-of-N bitwise-equals N independent runs: {GTS, LTS} x {W = 1, 2, 4}
// ---------------------------------------------------------------------------

class BatchEquivalence : public ::testing::TestWithParam<nsol::TimeScheme> {};

TEST_P(BatchEquivalence, MatchesIndependentRunsAtEveryWidth) {
  const nbatch::BatchConfig cfg = smallBatchConfig(GetParam());
  const std::vector<nbatch::ScenarioRequest> reqs = mixedRequests();

  // Independent references, one pipeline + W = 1 solve per request.
  std::vector<nsei::Seismogram> want;
  for (const auto& r : reqs) want.push_back(independentRun(cfg, r));

  for (const int_t width : {int_t{1}, int_t{2}, int_t{4}}) {
    nbatch::BatchConfig wcfg = cfg;
    wcfg.maxFusedWidth = width;
    nbatch::BatchStats stats;
    const auto results = runBatch(wcfg, reqs, &stats);
    ASSERT_EQ(results.size(), reqs.size()) << "width " << width;
    EXPECT_EQ(stats.completedRequests, static_cast<idx_t>(reqs.size()));
    // Two distinct material scales -> exactly two pipeline builds,
    // independent of the request count and the packing width.
    EXPECT_EQ(stats.pipelineBuilds, 2) << "width " << width;
    for (const auto& res : results) {
      ASSERT_GE(res.requestIndex, 0);
      ASSERT_LT(res.requestIndex, static_cast<idx_t>(want.size()));
      EXPECT_EQ(res.id, reqs[static_cast<std::size_t>(res.requestIndex)].id);
      expectBitwiseEqual(res.trace, want[static_cast<std::size_t>(res.requestIndex)],
                         "scheme " + std::to_string(static_cast<int>(GetParam())) + " width " +
                             std::to_string(width) + " request " + res.id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, BatchEquivalence,
                         ::testing::Values(nsol::TimeScheme::kGts,
                                           nsol::TimeScheme::kLtsNextGen),
                         [](const auto& info) {
                           return info.param == nsol::TimeScheme::kGts ? "Gts" : "LtsNextGen";
                         });

// ---------------------------------------------------------------------------
// Acceptance: 8 perturbed quickstart requests, preprocessing executed ONCE
// ---------------------------------------------------------------------------

TEST(BatchEngine, EightRequestsOnePipelineBuild) {
  nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  cfg.maxFusedWidth = 4;
  std::vector<nbatch::ScenarioRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    nbatch::ScenarioRequest r;
    r.id = "req" + std::to_string(i);
    r.sourceScale = 1.0 + 0.25 * i;          // fusable
    r.receiverOffset = {5.0 * i, 0.0, 0.0};  // shares the pipeline
    reqs.push_back(r);                       // materialScale 1.0 everywhere
  }

  std::vector<nsei::Seismogram> want;
  for (const auto& r : reqs) want.push_back(independentRun(cfg, r));

  nbatch::BatchStats stats;
  const auto results = runBatch(cfg, reqs, &stats);

  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(stats.pipelineBuilds, 1);     // preprocessing executed once...
  EXPECT_EQ(stats.pipelineHits, 1);
  EXPECT_EQ(stats.runs, 2);               // ...for two fused W = 4 runs
  for (const auto& res : results) {
    EXPECT_EQ(res.fusedWidth, 4);
    expectBitwiseEqual(res.trace, want[static_cast<std::size_t>(res.requestIndex)],
                       "request " + res.id);
  }
}

// ---------------------------------------------------------------------------
// Pipeline build/reuse accounting on per-request deltas
// ---------------------------------------------------------------------------

TEST(BatchEngine, CacheHitsOnReceiverOnlyAndSourceOnlyDeltas) {
  nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  cfg.maxFusedWidth = 1; // every request becomes its own run -> reuses visible
  const std::vector<nbatch::ScenarioRequest> reqs = {
      {"base", 1.0, 1.0, {0.0, 0.0, 0.0}},
      {"recv", 1.0, 1.0, {25.0, 0.0, 0.0}},   // receiver-only delta: HIT
      {"src", 1.75, 1.0, {0.0, 0.0, 0.0}},    // source-only delta: HIT
      {"mat", 1.0, 1.2, {0.0, 0.0, 0.0}},     // material delta: MISS
  };
  nbatch::BatchStats stats;
  const auto results = runBatch(cfg, reqs, &stats);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(stats.runs, 4);
  EXPECT_EQ(stats.pipelineBuilds, 2); // base config + the 1.2x material
  EXPECT_EQ(stats.pipelineHits, 2);   // "recv" and "src" reuse the base build
}

// ---------------------------------------------------------------------------
// Lane packing of heterogeneous perturbations
// ---------------------------------------------------------------------------

TEST(BatchEngine, PlanPacksCompatibleRequestsGreedily) {
  nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  cfg.maxFusedWidth = 4;
  nbatch::BatchEngine engine(cfg);
  // 5 base-material requests (indices 0, 1, 2, 4, 6) + 2 perturbed-material
  // requests (3, 5): expect runs [4, 1] for the first group and [2] for the
  // second, submission order preserved inside each run.
  for (int i = 0; i < 7; ++i) {
    nbatch::ScenarioRequest r;
    r.id = "r" + std::to_string(i);
    r.sourceScale = 1.0 + 0.1 * i;
    r.materialScale = (i == 3 || i == 5) ? 1.1 : 1.0;
    engine.add(r);
  }
  const auto& plan = engine.plan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].width, 4);
  EXPECT_EQ(plan[0].requests, (std::vector<idx_t>{0, 1, 2, 4}));
  EXPECT_EQ(plan[1].width, 1);
  EXPECT_EQ(plan[1].requests, (std::vector<idx_t>{6}));
  EXPECT_EQ(plan[2].width, 2);
  EXPECT_EQ(plan[2].requests, (std::vector<idx_t>{3, 5}));
  EXPECT_EQ(plan[0].materialScale, 1.0);
  EXPECT_EQ(plan[1].materialScale, 1.0);
  EXPECT_EQ(plan[2].materialScale, 1.1);
}

TEST(BatchEngine, PlanRespectsMaxFusedWidth) {
  nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  cfg.maxFusedWidth = 2;
  nbatch::BatchEngine engine(cfg);
  for (int i = 0; i < 5; ++i)
    engine.add({"r" + std::to_string(i), 1.0 + 0.1 * i, 1.0, {0.0, 0.0, 0.0}});
  const auto& plan = engine.plan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].width, 2);
  EXPECT_EQ(plan[1].width, 2);
  EXPECT_EQ(plan[2].width, 1);

  // f32 lists widths up to 16: 11 compatible requests under a cap of 16
  // pack as the largest listed width that fits, 8 + 2 + 1.
  cfg.sim.precision = nsol::Precision::kF32;
  cfg.maxFusedWidth = 16;
  nbatch::BatchEngine f32(cfg);
  for (int i = 0; i < 11; ++i)
    f32.add({"r" + std::to_string(i), 1.0 + 0.1 * i, 1.0, {0.0, 0.0, 0.0}});
  const auto& f32Plan = f32.plan();
  ASSERT_EQ(f32Plan.size(), 3u);
  EXPECT_EQ(f32Plan[0].width, 8);
  EXPECT_EQ(f32Plan[1].width, 2);
  EXPECT_EQ(f32Plan[2].width, 1);
  // The same cap is not a width f64 lists.
  cfg.sim.precision = nsol::Precision::kF64;
  EXPECT_THROW(nbatch::BatchEngine{cfg}, std::invalid_argument);
}

TEST(BatchEngine, RejectsInvalidConfig) {
  {
    nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kGts);
    cfg.maxFusedWidth = 3;
    EXPECT_THROW(nbatch::BatchEngine{cfg}, std::invalid_argument);
  }
  {
    nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kGts);
    cfg.checkpointEveryCycles = 4; // cadence without a path
    EXPECT_THROW(nbatch::BatchEngine{cfg}, std::invalid_argument);
  }
  for (const double endTime : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kGts);
    cfg.endTime = endTime;
    EXPECT_THROW(nbatch::BatchEngine{cfg}, std::invalid_argument) << "endTime " << endTime;
  }
  {
    nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kGts);
    cfg.faultFile = "does_not_exist.fault"; // hashed at construction
    EXPECT_THROW(nbatch::BatchEngine{cfg}, std::invalid_argument);
  }
}

TEST(BatchEngine, AddRejectsMaterialScalesThatAreNotFiniteAndPositive) {
  nbatch::BatchEngine engine(smallBatchConfig(nsol::TimeScheme::kGts));
  for (const double scale : {0.0, -1.1, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(engine.add({"bad", 1.0, scale, {0.0, 0.0, 0.0}}), std::invalid_argument)
        << "material scale " << scale;
  EXPECT_EQ(engine.numRequests(), 0);
  engine.add({"ok", 1.0, 0.9, {0.0, 0.0, 0.0}});
  EXPECT_EQ(engine.numRequests(), 1);
}

// ---------------------------------------------------------------------------
// Batch fingerprint: every input that shapes a result changes it, the
// performance knobs do not. A value it silently ignored would let a
// snapshot restore into a different problem.
// ---------------------------------------------------------------------------

namespace {

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::uint64_t fingerprintOf(const nbatch::BatchConfig& cfg) {
  nbatch::BatchEngine engine(cfg);
  engine.add({"a", 1.0, 1.0, {0.0, 0.0, 0.0}});
  return engine.fingerprint();
}

} // namespace

TEST(BatchFingerprint, EveryResultShapingInputPerturbsIt) {
  using Mut = std::function<void(nbatch::BatchConfig&)>;
  const std::string meshPath = "test_batch_engine_fp.msh";
  const std::string faultPath = "test_batch_engine_fp.fault";
  const std::vector<std::pair<std::string, Mut>> mutations = {
      // The mesh-shaping PipelineConfig fields.
      {"pipeline.lo[0]", [](auto& c) { c.pipeline.lo[0] = 1.0; }},
      {"pipeline.lo[1]", [](auto& c) { c.pipeline.lo[1] = 1.0; }},
      {"pipeline.lo[2]", [](auto& c) { c.pipeline.lo[2] = -999.0; }},
      {"pipeline.hi[0]", [](auto& c) { c.pipeline.hi[0] = 999.0; }},
      {"pipeline.hi[1]", [](auto& c) { c.pipeline.hi[1] = 999.0; }},
      {"pipeline.hi[2]", [](auto& c) { c.pipeline.hi[2] = -1.0; }},
      {"pipeline.elementsPerWavelength", [](auto& c) { c.pipeline.elementsPerWavelength = 2.5; }},
      {"pipeline.maxFrequency", [](auto& c) { c.pipeline.maxFrequency = 1.5; }},
      {"pipeline.minEdge", [](auto& c) { c.pipeline.minEdge = 20.0; }},
      {"pipeline.maxEdge", [](auto& c) { c.pipeline.maxEdge = 1e8; }},
      {"pipeline.jitter", [](auto& c) { c.pipeline.jitter = 0.05; }},
      {"pipeline.freeSurfaceTop", [](auto& c) { c.pipeline.freeSurfaceTop = false; }},
      // The external files, by their bytes.
      {"mesh-file bytes",
       [&](auto& c) {
         writeFile(meshPath, "mesh A\n");
         c.pipeline.meshFile = meshPath;
       }},
      {"fault-file bytes",
       [&](auto& c) {
         writeFile(faultPath, "fault A\n");
         c.faultFile = faultPath;
       }},
      // The solver knobs (mirrored into the pipeline, or stepping it).
      {"sim.order", [](auto& c) { c.sim.order = 3; }},
      {"sim.mechanisms", [](auto& c) { c.sim.mechanisms = 2; }},
      {"sim.cfl", [](auto& c) { c.sim.cfl = 0.4; }},
      {"sim.scheme", [](auto& c) { c.sim.scheme = nsol::TimeScheme::kLtsBaseline; }},
      {"sim.numClusters", [](auto& c) { c.sim.numClusters = 2; }},
      {"sim.autoLambda", [](auto& c) { c.sim.autoLambda = false; }},
      {"sim.receiverSampleDt", [](auto& c) { c.sim.receiverSampleDt = 0.01; }},
      {"sim.sparseKernels", [](auto& c) { c.sim.sparseKernels = true; }},
      {"sim.precision", [](auto& c) { c.sim.precision = nsol::Precision::kF32; }},
      {"endTime", [](auto& c) { c.endTime = 0.3; }},
      {"maxFusedWidth", [](auto& c) { c.maxFusedWidth = 2; }},
  };

  const nbatch::BatchConfig base = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  const std::uint64_t baseKey = fingerprintOf(base);
  std::map<std::uint64_t, std::string> seen{{baseKey, "base"}};
  for (const auto& [name, mutate] : mutations) {
    nbatch::BatchConfig cfg = base;
    mutate(cfg);
    const std::uint64_t key = fingerprintOf(cfg);
    EXPECT_NE(key, baseKey) << "ignored by the fingerprint: " << name;
    const auto [it, inserted] = seen.emplace(key, name);
    EXPECT_TRUE(inserted) << name << " collides with " << it->second;
  }

  // Editing a file changes the fingerprint; moving it does not.
  const auto withFile = [&](bool mesh, const std::string& path, const std::string& bytes) {
    writeFile(path, bytes);
    nbatch::BatchConfig cfg = base;
    (mesh ? cfg.pipeline.meshFile : cfg.faultFile) = path;
    return fingerprintOf(cfg);
  };
  for (const bool mesh : {true, false}) {
    const std::string& moved = faultPath; // the same bytes under another name
    const std::uint64_t v1 = withFile(mesh, meshPath, "version 1\n");
    EXPECT_NE(withFile(mesh, meshPath, "version 2\n"), v1) << "mesh " << mesh;
    EXPECT_EQ(withFile(mesh, moved, "version 1\n"), v1) << "mesh " << mesh;
  }
  std::remove(meshPath.c_str());
  std::remove(faultPath.c_str());

  // Performance knobs and the Q band the batch does not read keep it.
  for (const auto& [name, mutate] : std::vector<std::pair<std::string, Mut>>{
           {"sim.numThreads", [](auto& c) { c.sim.numThreads = 3; }},
           {"sim.kernelBackend",
            [](auto& c) { c.sim.kernelBackend = nglts::linalg::KernelBackend::kScalar; }},
           {"sim.attenuationFreq", [](auto& c) { c.sim.attenuationFreq = 5.0; }},
           {"checkpointEveryCycles",
            [](auto& c) {
              c.checkpointEveryCycles = 3;
              c.checkpointPath = "unused.snap";
            }},
       }) {
    nbatch::BatchConfig cfg = base;
    mutate(cfg);
    EXPECT_EQ(fingerprintOf(cfg), baseKey) << name << " changed the fingerprint";
  }
}

TEST(BatchFingerprint, CoversTheRequestList) {
  const nbatch::BatchConfig cfg = smallBatchConfig(nsol::TimeScheme::kLtsNextGen);
  const auto fp = [&](const std::vector<nbatch::ScenarioRequest>& reqs) {
    nbatch::BatchEngine engine(cfg);
    engine.add(reqs);
    return engine.fingerprint();
  };
  const std::uint64_t base = fp({{"a", 1.0, 1.0, {0.0, 0.0, 0.0}}});
  EXPECT_NE(fp({{"b", 1.0, 1.0, {0.0, 0.0, 0.0}}}), base);
  EXPECT_NE(fp({{"a", 2.0, 1.0, {0.0, 0.0, 0.0}}}), base);
  EXPECT_NE(fp({{"a", 1.0, 1.1, {0.0, 0.0, 0.0}}}), base);
  EXPECT_NE(fp({{"a", 1.0, 1.0, {0.0, 0.0, 5.0}}}), base);
  EXPECT_NE(fp({{"a", 1.0, 1.0, {0.0, 0.0, 0.0}}, {"a", 1.0, 1.0, {0.0, 0.0, 0.0}}}), base);
}

// ---------------------------------------------------------------------------
// Manifest parsing
// ---------------------------------------------------------------------------

TEST(BatchManifest, ParsesFieldsDefaultsAndComments) {
  std::istringstream in(
      "# ensemble definition\n"
      "base\n"
      "louder 2.0\n"
      "stiff 1.0 1.2\n"
      "moved 1.5 1.0 25 -10 5  # trailing comment\n"
      "\n");
  const auto reqs = nbatch::parseManifest(in, "test");
  ASSERT_EQ(reqs.size(), 4u);
  EXPECT_EQ(reqs[0].id, "base");
  EXPECT_DOUBLE_EQ(reqs[0].sourceScale, 1.0);
  EXPECT_DOUBLE_EQ(reqs[1].sourceScale, 2.0);
  EXPECT_DOUBLE_EQ(reqs[2].materialScale, 1.2);
  EXPECT_EQ(reqs[3].receiverOffset, (std::array<double, 3>{25.0, -10.0, 5.0}));
}

TEST(BatchManifest, ErrorsNameTheLine) {
  {
    std::istringstream in("ok 1.0\nbad 1.0 not-a-number\n");
    try {
      nbatch::parseManifest(in, "m");
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("m:2"), std::string::npos) << e.what();
    }
  }
  {
    std::istringstream in("partial 1.0 1.0 5 5\n"); // offset needs all three
    EXPECT_THROW(nbatch::parseManifest(in, "m"), std::runtime_error);
  }
  {
    std::istringstream in("# only comments\n\n");
    EXPECT_THROW(nbatch::parseManifest(in, "m"), std::runtime_error);
  }
  {
    std::istringstream in("neg 1.0 -0.5\n"); // material scale must be positive
    EXPECT_THROW(nbatch::parseManifest(in, "m"), std::runtime_error);
  }
}
