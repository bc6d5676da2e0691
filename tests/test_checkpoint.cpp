// Checkpoint/restart hardening: kill-and-restore mid-schedule must be
// bitwise-identical to an uninterrupted run (at the Simulation level, across
// rank counts and transports, and through the BatchEngine's kill/resume
// path), and damaged snapshots — truncated, bit-flipped, wrong version,
// wrong batch — must fail with clear `std::runtime_error`s, never resume
// silently into wrong state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "batch/batch_engine.hpp"
#include "batch/checkpoint.hpp"
#include "mesh/gmsh_io.hpp"
#include "parallel/dist_sim.hpp"
#include "pre/pipeline.hpp"
#include "solver/simulation.hpp"
#include "solver_fixtures.hpp"

namespace nbatch = nglts::batch;
namespace npar = nglts::parallel;
namespace npre = nglts::pre;
namespace nsol = nglts::solver;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;
using nglts::test::memoized;

namespace {

/// Unique-ish per-test snapshot path under the build dir's cwd.
std::string snapPath(const std::string& tag) { return "test_checkpoint_" + tag + ".snap"; }

/// The coarse quickstart batch of the kill/restore cases (~0.4x
/// resolution, short end time).
nbatch::BatchConfig smallBatch() {
  nbatch::BatchConfig cfg = nbatch::quickstartBatchConfig();
  cfg.endTime = 0.2;
  cfg.pipeline.minEdge /= 0.4;
  cfg.pipeline.maxEdge /= 0.4;
  return cfg;
}

struct Fixture {
  npre::PipelineResult pipe;
  nsol::SimConfig cfg;

  explicit Fixture(nsol::TimeScheme scheme) {
    const nbatch::BatchConfig base = nbatch::quickstartBatchConfig();
    npre::PipelineConfig p = base.pipeline;
    p.minEdge /= 0.4;
    p.maxEdge /= 0.4;
    p.order = 3;
    p.mechanisms = base.sim.mechanisms;
    p.numClusters = scheme == nsol::TimeScheme::kGts ? 1 : 3;
    p.autoLambda = false;
    const nsei::LayeredModel model = nbatch::quickstart::model();
    pipe = npre::runPipeline(model, p);
    cfg = base.sim;
    cfg.order = 3;
    cfg.scheme = scheme;
    cfg.numClusters = p.numClusters;
    cfg.lambda = pipe.clustering.lambda;
    cfg.autoLambda = false;
  }

  /// The fixture's run: the single-rank engine by default, else `ranks`
  /// x-stripes of the box under `transport` with `threads` threads per rank.
  template <int W, typename Real = double>
  std::unique_ptr<nsol::Simulation<Real, W>> makeSim(
      int_t ranks = 0, npar::Transport transport = npar::Transport::kSeq,
      int_t threads = 1) const {
    std::unique_ptr<nsol::Simulation<Real, W>> sim;
    if (ranks == 0) {
      sim = std::make_unique<nsol::Simulation<Real, W>>(pipe.mesh, pipe.materials, cfg);
    } else {
      std::vector<int_t> part(static_cast<std::size_t>(pipe.mesh.numElements()));
      for (idx_t e = 0; e < pipe.mesh.numElements(); ++e)
        part[e] =
            std::min(ranks - 1, static_cast<int_t>(pipe.mesh.centroid(e)[0] / 1000.0 * ranks));
      npar::DistConfig dcfg;
      dcfg.sim = cfg;
      dcfg.sim.numThreads = threads;
      dcfg.transport = transport;
      sim = std::make_unique<nsol::Simulation<Real, W>>(pipe.mesh, pipe.materials, part, dcfg);
    }
    std::vector<double> laneScale(W);
    for (int w = 0; w < W; ++w) laneScale[static_cast<std::size_t>(w)] = 1.0 + 0.5 * w;
    sim->addPointSource(nbatch::quickstart::source(), laneScale);
    EXPECT_GE(sim->addReceiver(nbatch::quickstart::kReceiverPosition), 0);
    return sim;
  }
};

/// The fixture of `scheme`, built once per test process.
const Fixture& fixture(nsol::TimeScheme scheme) {
  return memoized(scheme, [&] { return Fixture(scheme); });
}

template <typename Real, int W>
void expectSimsBitwiseEqual(const nsol::Simulation<Real, W>& a,
                            const nsol::Simulation<Real, W>& b) {
  const idx_t n = a.meshRef().numElements();
  ASSERT_EQ(n, b.meshRef().numElements());
  const std::size_t elSize = a.kernels().dofsPerElement();
  for (idx_t el = 0; el < n; ++el) {
    const Real* qa = a.dofs(el);
    const Real* qb = b.dofs(el);
    for (std::size_t i = 0; i < elSize; ++i)
      ASSERT_EQ(qa[i], qb[i]) << "element " << el << " dof " << i;
  }
  ASSERT_EQ(a.numReceivers(), b.numReceivers());
  for (idx_t r = 0; r < a.numReceivers(); ++r) {
    const auto& ta = a.receiver(r).traces;
    const auto& tb = b.receiver(r).traces;
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t lane = 0; lane < ta.size(); ++lane) {
      ASSERT_EQ(ta[lane].times.size(), tb[lane].times.size()) << "lane " << lane;
      for (std::size_t i = 0; i < ta[lane].times.size(); ++i) {
        ASSERT_EQ(ta[lane].times[i], tb[lane].times[i]);
        for (int_t v = 0; v < nglts::kElasticVars; ++v)
          ASSERT_EQ(ta[lane].values[i][v], tb[lane].values[i][v]);
      }
    }
  }
}

std::vector<char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------------------------
// Simulation-level round trip: save mid-run, restore into a fresh solver,
// finish — bitwise-identical to the uninterrupted run. The format is
// layout-free, so a run saved at R ranks restores at any R' and into the
// single-rank constructor, and the file bytes at one cycle are the same for
// every rank count, transport and thread count — a whole-state determinism
// oracle. The snapshot holds no B1/B2/B3 or derivative stack: LTS and the
// baseline scheme check that both are dead at a cycle boundary.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kTotalCycles = 6, kCutCycle = 3;

/// The uninterrupted W = 2 run of `scheme` and the bytes of the snapshot
/// the single-rank constructor saves at the cut, built once per scheme and
/// shared by its transport rows.
struct SnapshotReference {
  std::unique_ptr<nsol::Simulation<double, 2>> uninterrupted;
  std::vector<char> bytes;
};

const SnapshotReference& snapshotReference(nsol::TimeScheme scheme) {
  return memoized(scheme, [&] {
    const Fixture& fx = fixture(scheme);
    SnapshotReference ref;
    ref.uninterrupted = fx.makeSim<2>();
    ref.uninterrupted->runCycles(kTotalCycles);
    auto first = fx.makeSim<2>();
    first->runCycles(kCutCycle);
    const std::string path = snapPath("ranks_ref");
    nbatch::saveSnapshot(path, /*fingerprint=*/42, /*runIndex=*/0, kCutCycle, first.get());
    ref.bytes = readAll(path);
    std::remove(path.c_str());
    return ref;
  });
}

} // namespace

class SnapshotAcrossRanks
    : public ::testing::TestWithParam<std::tuple<nsol::TimeScheme, npar::Transport>> {};

TEST_P(SnapshotAcrossRanks, SaveAtAnyRankCountRestoresAtAny) {
  const auto [scheme, transport] = GetParam();
  const Fixture& fx = fixture(scheme);
  const SnapshotReference& ref = snapshotReference(scheme);
  constexpr int W = 2;
  if (scheme != nsol::TimeScheme::kGts) {
    const auto& sizes = ref.uninterrupted->clustering().clusterSize;
    ASSERT_GE(std::count_if(sizes.begin(), sizes.end(), [](idx_t s) { return s > 0; }), 2);
  }

  const auto pathAt = [](int_t ranks) { return snapPath("ranks" + std::to_string(ranks)); };
  for (int_t ranks = 1; ranks <= 3; ++ranks)
    for (int_t threads = 1; threads <= 2; ++threads) {
      auto first = fx.makeSim<W>(ranks, transport, threads);
      ASSERT_EQ(first->ranks(), ranks);
      first->runCycles(kCutCycle);
      nbatch::saveSnapshot(pathAt(ranks), 42, 0, kCutCycle, first.get());
      EXPECT_TRUE(readAll(pathAt(ranks)) == ref.bytes)
          << "snapshot bytes differ at " << ranks << " ranks, " << threads << " threads";
    }

  // Restoring at rank count 0 is restoring into the single-rank constructor.
  for (int_t saved = 1; saved <= 3; ++saved)
    for (int_t ranks = 0; ranks <= 3; ++ranks) {
      SCOPED_TRACE("saved at " + std::to_string(saved) + " ranks, restored at " +
                   std::to_string(ranks));
      auto resumed = fx.makeSim<W>(ranks, transport);
      const nbatch::SnapshotInfo info = nbatch::loadSnapshot(pathAt(saved), *resumed);
      EXPECT_EQ(info.cyclesDone, kCutCycle);
      EXPECT_EQ(info.batchFingerprint, 42u);
      resumed->runCycles(kTotalCycles - kCutCycle);
      expectSimsBitwiseEqual(*resumed, *ref.uninterrupted);
    }
  for (int_t ranks = 1; ranks <= 3; ++ranks) std::remove(pathAt(ranks).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTransports, SnapshotAcrossRanks,
    ::testing::Combine(::testing::Values(nsol::TimeScheme::kGts, nsol::TimeScheme::kLtsNextGen,
                                         nsol::TimeScheme::kLtsBaseline),
                       ::testing::Values(npar::Transport::kSeq, npar::Transport::kThread)),
    [](const auto& info) {
      const nsol::TimeScheme scheme = std::get<0>(info.param);
      const std::string s = scheme == nsol::TimeScheme::kGts          ? "Gts"
                            : scheme == nsol::TimeScheme::kLtsNextGen ? "LtsNextGen"
                                                                      : "LtsBaseline";
      return s + (std::get<1>(info.param) == npar::Transport::kSeq ? "Seq" : "Thread");
    });

// ---------------------------------------------------------------------------
// Batch-level kill/restore: abort after the first snapshot, resume with
// --restore semantics, union of results bitwise-equals the uninterrupted
// batch.
// ---------------------------------------------------------------------------

TEST(BatchCheckpoint, KilledBatchResumesBitwiseIdentical) {
  nbatch::BatchConfig cfg = smallBatch();
  cfg.maxFusedWidth = 2;
  const std::vector<nbatch::ScenarioRequest> reqs = {
      {"a", 1.0, 1.0, {0.0, 0.0, 0.0}},
      {"b", 1.5, 1.0, {10.0, 0.0, 0.0}},
      {"c", 0.75, 1.1, {0.0, 0.0, 0.0}},
  };

  // Reference: the uninterrupted batch.
  std::vector<nbatch::RequestResult> want;
  {
    nbatch::BatchEngine engine(cfg);
    engine.add(reqs);
    engine.run([&](const nbatch::RequestResult& r) { want.push_back(r); });
  }
  ASSERT_EQ(want.size(), 3u);

  // Interrupted: checkpoint every 2 cycles, simulated kill after the first
  // snapshot (mid-run, before any result was streamed).
  const std::string path = snapPath("batch");
  nbatch::BatchConfig ckCfg = cfg;
  ckCfg.checkpointEveryCycles = 2;
  ckCfg.checkpointPath = path;
  ckCfg.abortAfterCheckpoints = 1;
  std::vector<nbatch::RequestResult> collected;
  {
    nbatch::BatchEngine engine(ckCfg);
    engine.add(reqs);
    const nbatch::BatchStats stats =
        engine.run([&](const nbatch::RequestResult& r) { collected.push_back(r); });
    EXPECT_TRUE(stats.interrupted);
    EXPECT_LT(stats.completedRequests, 3);
  }

  // Resume: same batch definition, restore on.
  nbatch::BatchConfig reCfg = ckCfg;
  reCfg.abortAfterCheckpoints = 0;
  reCfg.restore = true;
  {
    nbatch::BatchEngine engine(reCfg);
    engine.add(reqs);
    const nbatch::BatchStats stats =
        engine.run([&](const nbatch::RequestResult& r) { collected.push_back(r); });
    EXPECT_FALSE(stats.interrupted);
  }

  ASSERT_EQ(collected.size(), 3u);
  for (const auto& got : collected) {
    const auto it = std::find_if(want.begin(), want.end(), [&](const auto& w) {
      return w.requestIndex == got.requestIndex;
    });
    ASSERT_NE(it, want.end());
    EXPECT_EQ(got.id, it->id);
    ASSERT_EQ(got.trace.times.size(), it->trace.times.size()) << got.id;
    for (std::size_t i = 0; i < got.trace.times.size(); ++i) {
      ASSERT_EQ(got.trace.times[i], it->trace.times[i]) << got.id;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(got.trace.values[i][v], it->trace.values[i][v]) << got.id;
    }
  }
  std::remove(path.c_str());
}

TEST(BatchCheckpoint, RestoreRejectsDifferentBatch) {
  nbatch::BatchConfig cfg = smallBatch();
  const std::string path = snapPath("fingerprint");
  cfg.checkpointEveryCycles = 2;
  cfg.checkpointPath = path;
  cfg.abortAfterCheckpoints = 1;
  {
    nbatch::BatchEngine engine(cfg);
    engine.add({{"a", 1.0, 1.0, {0.0, 0.0, 0.0}}});
    engine.run(nullptr);
  }
  // A different request list is a different batch — restoring must fail.
  nbatch::BatchConfig other = cfg;
  other.abortAfterCheckpoints = 0;
  other.restore = true;
  nbatch::BatchEngine engine(other);
  engine.add({{"a", 2.0, 1.0, {0.0, 0.0, 0.0}}});
  try {
    engine.run(nullptr);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different batch"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Input files are part of the batch: a restore after an edit of the
// --fault-file or the --mesh-file is refused, and accepted again once the
// original bytes are back.
// ---------------------------------------------------------------------------

namespace {

/// Interrupt a one-request checkpointed batch after its first snapshot,
/// overwrite `file` with `edited` and restore: refused as a different
/// batch. With the original bytes back the same restore runs to completion.
void expectRestoreRefusedAfterEdit(nbatch::BatchConfig cfg, const std::string& file,
                                   const std::vector<char>& edited) {
  const std::vector<char> original = readAll(file);
  ASSERT_FALSE(original.empty()) << file;
  ASSERT_NE(original, edited);
  const nbatch::ScenarioRequest req{"a", 1.0, 1.0, {0.0, 0.0, 0.0}};
  cfg.checkpointEveryCycles = 2;
  cfg.checkpointPath = snapPath("edited_input");
  cfg.abortAfterCheckpoints = 1;
  {
    nbatch::BatchEngine engine(cfg);
    engine.add(req);
    ASSERT_TRUE(engine.run(nullptr).interrupted);
  }
  cfg.abortAfterCheckpoints = 0;
  cfg.restore = true;

  writeAll(file, edited);
  {
    nbatch::BatchEngine engine(cfg);
    engine.add(req);
    try {
      engine.run(nullptr);
      ADD_FAILURE() << "restore after editing " << file << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("different batch"), std::string::npos) << e.what();
    }
  }

  writeAll(file, original);
  nbatch::BatchEngine engine(cfg);
  engine.add(req);
  const nbatch::BatchStats stats = engine.run(nullptr);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_EQ(stats.completedRequests, 1);
  std::remove(cfg.checkpointPath.c_str());
}

std::vector<char> bytesOf(const std::string& text) { return {text.begin(), text.end()}; }

} // namespace

TEST(BatchCheckpoint, RestoreRejectsEditedFaultFile) {
  const std::string fault = "test_checkpoint_batch.fault";
  const std::string stanza =
      "subfault\nposition 450 500 -350\nmoment 0 0 0 MOMENT 0 0\n"
      "stf 0.0 0.0\nstf 0.1 1.0\nstf 0.4 0.0\n";
  const auto withMoment = [&](const std::string& m) {
    std::string text = stanza;
    text.replace(text.find("MOMENT"), 6, m);
    return bytesOf(text);
  };
  writeAll(fault, withMoment("1e9"));
  nbatch::BatchConfig cfg = smallBatch();
  cfg.faultFile = fault;
  expectRestoreRefusedAfterEdit(cfg, fault, withMoment("2e9"));
  std::remove(fault.c_str());
}

TEST(BatchCheckpoint, RestoreRejectsEditedMeshFile) {
  // The batch's own pipeline mesh, exported; the edit is the same box at a
  // different jitter.
  nbatch::BatchConfig cfg = smallBatch();
  const auto meshBytes = [generated = cfg.pipeline](double jitter) {
    npre::PipelineConfig p = generated;
    p.jitter = jitter;
    p.autoLambda = false;
    const std::string tmp = "test_checkpoint_batch_tmp.msh";
    nglts::mesh::writeGmshFile(npre::runPipeline(nbatch::quickstart::model(), p).mesh, tmp);
    std::vector<char> bytes = readAll(tmp);
    std::remove(tmp.c_str());
    return bytes;
  };
  const std::string mesh = "test_checkpoint_batch.msh";
  writeAll(mesh, meshBytes(cfg.pipeline.jitter));
  cfg.pipeline.meshFile = mesh;
  expectRestoreRefusedAfterEdit(cfg, mesh, meshBytes(0.1));
  std::remove(mesh.c_str());
}

// ---------------------------------------------------------------------------
// Damaged snapshots fail loudly and distinctly
// ---------------------------------------------------------------------------

namespace {

/// The intact snapshot the damage cases start from: the LTS fixture's
/// W = 1 run saved after 2 cycles, built once per test process.
const std::vector<char>& intactSnapshot() {
  return memoized(nsol::TimeScheme::kLtsNextGen, [] {
    auto sim = fixture(nsol::TimeScheme::kLtsNextGen).makeSim<1>();
    sim->runCycles(2);
    const std::string path = snapPath("intact");
    nbatch::saveSnapshot(path, 7, 0, 2, sim.get());
    std::vector<char> bytes = readAll(path);
    std::remove(path.c_str());
    return bytes;
  });
}

} // namespace

class SnapshotDamage : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = snapPath("damage");
    fx_ = &fixture(nsol::TimeScheme::kLtsNextGen);
    bytes_ = intactSnapshot();
    ASSERT_GT(bytes_.size(), 32u);
    writeAll(path_, bytes_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expectLoadError(const std::string& needle) {
    auto sim = fx_->makeSim<1>();
    try {
      nbatch::loadSnapshot(path_, *sim);
      FAIL() << "expected std::runtime_error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }

  std::string path_;
  const Fixture* fx_ = nullptr;
  std::vector<char> bytes_;
};

TEST_F(SnapshotDamage, IntactSnapshotLoads) {
  auto sim = fx_->makeSim<1>();
  const nbatch::SnapshotInfo info = nbatch::loadSnapshot(path_, *sim);
  EXPECT_EQ(info.cyclesDone, 2u);
  EXPECT_TRUE(info.hasState);
  EXPECT_EQ(info.width, 1u);
  EXPECT_EQ(info.realSize, sizeof(double));
}

TEST_F(SnapshotDamage, TruncatedSnapshotFails) {
  bytes_.resize(bytes_.size() / 2);
  writeAll(path_, bytes_);
  expectLoadError("corrupted or truncated");
  // Even a peek (header-only read) must notice.
  EXPECT_THROW(nbatch::peekSnapshot(path_), std::runtime_error);
}

TEST_F(SnapshotDamage, BitFlipFailsChecksum) {
  bytes_[bytes_.size() / 2] = static_cast<char>(bytes_[bytes_.size() / 2] ^ 0x40);
  writeAll(path_, bytes_);
  expectLoadError("corrupted or truncated");
}

TEST_F(SnapshotDamage, VersionMismatchIsDistinctFromCorruption) {
  // A newer version and the older formats 1, 3, 4 and 6 are all rejected
  // by their version, not by the checksum error the changed byte would
  // also cause.
  for (const int version : {99, 1, 3, 4, 6}) {
    std::vector<char> bytes = bytes_;
    bytes[8] = static_cast<char>(version); // version field (little-endian u32 at offset 8)
    writeAll(path_, bytes);
    expectLoadError("has version " + std::to_string(version) + ",");
  }
}

TEST_F(SnapshotDamage, BadMagicFails) {
  bytes_[0] = 'X';
  writeAll(path_, bytes_);
  expectLoadError("not an nglts snapshot");
}

TEST_F(SnapshotDamage, WidthMismatchFails) {
  auto sim2 = fx_->makeSim<2>();
  try {
    nbatch::loadSnapshot(path_, *sim2);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("W="), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotDamage, FileHoldsOnlyDofsAndTraces) {
  // The exact size: header, state prelude, every element's DOFs, the traces
  // and the checksum. A buffer or counter sneaking back into the format
  // changes it.
  auto sim = fx_->makeSim<1>();
  sim->runCycles(2);
  const std::size_t header = 8 + 5 * 4 + 3 * 8;
  const std::size_t prelude = 3 * 8; // numElements, elSize, numClusters
  const std::size_t dofs = static_cast<std::size_t>(sim->meshRef().numElements()) *
                           sim->kernels().dofsPerElement() * sizeof(double);
  std::size_t traces = 8; // receiver count
  for (idx_t r = 0; r < sim->numReceivers(); ++r) {
    traces += 8; // lane count
    for (const auto& lane : sim->receiver(r).traces)
      traces += 8 + lane.times.size() * (1 + nglts::kElasticVars) * 8;
  }
  EXPECT_EQ(bytes_.size(), header + prelude + dofs + traces + 8);
}

TEST_F(SnapshotDamage, OutOfRangeCycleCountFails) {
  // A file with a valid checksum whose cycle count would overflow the step
  // counters is rejected, not resumed.
  constexpr std::size_t cyclesDoneAt = 8 + 5 * 4 + 2 * 8;
  for (std::size_t i = 0; i < 8; ++i) bytes_[cyclesDoneAt + i] = static_cast<char>(0xff);
  std::uint64_t h = 1469598103934665603ull; // FNV-1a over everything but the trailer
  for (std::size_t i = 0; i + 8 < bytes_.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes_[i]);
    h *= 1099511628211ull;
  }
  for (std::size_t i = 0; i < 8; ++i)
    bytes_[bytes_.size() - 8 + i] = static_cast<char>((h >> (8 * i)) & 0xff);
  writeAll(path_, bytes_);
  expectLoadError("out-of-range cycle count");
}

TEST(RunEndTime, RejectsTimesWithoutAValidCycleCount) {
  // `run(endTime)` applies the step-counter bound a restored cycle count
  // meets above, and rejects times with no cycle count at all (-1 and NaN
  // would otherwise cast to ~2^64 and 2^63 cycles, inf to 0).
  auto sim = fixture(nsol::TimeScheme::kLtsNextGen).makeSim<1>();
  const double dt = sim->cycleDt();
  EXPECT_EQ(sim->cyclesFor(0.0), 0u);
  EXPECT_EQ(sim->cyclesFor(dt), 1u);
  EXPECT_EQ(sim->cyclesFor(2.5 * dt), 3u);
  // Cluster 0 steps cycles * 2^(nc - 1) times, and that must fit idx_t.
  const int_t nc = sim->clustering().numClusters;
  ASSERT_EQ(nc, 3);
  const double limit = std::ldexp(1.0, std::numeric_limits<idx_t>::digits - (nc - 1));
  EXPECT_EQ(sim->cyclesFor(0.5 * limit * dt), static_cast<std::uint64_t>(0.5 * limit));
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, const char*> bad[] = {
      {-1.0, "end time -1 "}, {-0.5 * dt, "end time -"},
      {std::nan(""), "nan"},  {inf, "end time inf "},
      {-inf, "end time -inf "}, {2.0 * limit * dt, "end time "},
      {1e300, "end time 1.0000000000000001e+300 "}};
  for (const auto& [endTime, needle] : bad) {
    try {
      sim->run(endTime);
      ADD_FAILURE() << "run(" << endTime << ") was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(sim->receiver(0).traces[0].times.size(), 0u) << "a rejected run stepped";
}

TEST_F(SnapshotDamage, MissingFileFails) {
  EXPECT_THROW(nbatch::peekSnapshot("does_not_exist.snap"), std::runtime_error);
}

TEST_F(SnapshotDamage, RunBoundaryMarkerCarriesNoState) {
  nbatch::saveSnapshot<double, 1>(path_, 7, 1, 0, nullptr);
  const nbatch::SnapshotInfo info = nbatch::peekSnapshot(path_);
  EXPECT_FALSE(info.hasState);
  EXPECT_EQ(info.runIndex, 1u);
  auto sim = fx_->makeSim<1>();
  expectLoadError("carries no state");
}

// ---------------------------------------------------------------------------
// Precision field
// ---------------------------------------------------------------------------

TEST_F(SnapshotDamage, CurrentSnapshotIsV7F64) {
  EXPECT_EQ(nbatch::kSnapshotVersion, 7u);
  EXPECT_EQ(bytes_[8], static_cast<char>(nbatch::kSnapshotVersion));
  EXPECT_EQ(nbatch::peekSnapshot(path_).precision, nsol::Precision::kF64);
}

TEST_F(SnapshotDamage, PrecisionMismatchMentionsPrecisionFlag) {
  // The snapshot carries f64 state; restoring into an f32 build of the same
  // run must fail on the precision check (before the raw sizeof diagnostic).
  auto sim = fx_->makeSim<1, float>();
  try {
    nbatch::loadSnapshot(path_, *sim);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--precision"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotDamage, F32RoundTripIsBitwiseIdentical) {
  auto uninterrupted = fx_->makeSim<2, float>();
  uninterrupted->runCycles(6);
  {
    auto first = fx_->makeSim<2, float>();
    first->runCycles(2);
    nbatch::saveSnapshot(path_, 9, 0, 2, first.get());
  }
  const nbatch::SnapshotInfo peeked = nbatch::peekSnapshot(path_);
  EXPECT_EQ(peeked.precision, nsol::Precision::kF32);
  EXPECT_EQ(peeked.realSize, sizeof(float));
  auto resumed = fx_->makeSim<2, float>();
  nbatch::loadSnapshot(path_, *resumed);
  resumed->runCycles(4);
  expectSimsBitwiseEqual(*resumed, *uninterrupted);
}

TEST(BatchCheckpoint, RestoreRejectsPrecisionFlip) {
  nbatch::BatchConfig cfg = smallBatch();
  const std::string path = snapPath("precision");
  cfg.checkpointEveryCycles = 2;
  cfg.checkpointPath = path;
  cfg.abortAfterCheckpoints = 1;
  {
    nbatch::BatchEngine engine(cfg);
    engine.add({{"a", 1.0, 1.0, {0.0, 0.0, 0.0}}});
    engine.run(nullptr);
  }
  // Same batch, but --precision flipped to f32: the restore must name the
  // precision flag, not report a generic fingerprint mismatch.
  nbatch::BatchConfig other = cfg;
  other.abortAfterCheckpoints = 0;
  other.restore = true;
  other.sim.precision = nsol::Precision::kF32;
  nbatch::BatchEngine engine(other);
  engine.add({{"a", 1.0, 1.0, {0.0, 0.0, 0.0}}});
  try {
    engine.run(nullptr);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--precision"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(BatchCheckpoint, F32BatchCheckpointRoundTrip) {
  // The full kill/resume path at f32: interrupted + restored results must
  // bitwise-match the uninterrupted f32 batch.
  nbatch::BatchConfig cfg = smallBatch();
  cfg.maxFusedWidth = 2;
  cfg.sim.precision = nsol::Precision::kF32;
  const std::vector<nbatch::ScenarioRequest> reqs = {
      {"a", 1.0, 1.0, {0.0, 0.0, 0.0}},
      {"b", 1.5, 1.0, {10.0, 0.0, 0.0}},
  };
  std::vector<nbatch::RequestResult> want;
  {
    nbatch::BatchEngine engine(cfg);
    engine.add(reqs);
    engine.run([&](const nbatch::RequestResult& r) { want.push_back(r); });
  }
  ASSERT_EQ(want.size(), 2u);

  const std::string path = snapPath("f32batch");
  nbatch::BatchConfig ckCfg = cfg;
  ckCfg.checkpointEveryCycles = 2;
  ckCfg.checkpointPath = path;
  ckCfg.abortAfterCheckpoints = 1;
  std::vector<nbatch::RequestResult> collected;
  {
    nbatch::BatchEngine engine(ckCfg);
    engine.add(reqs);
    EXPECT_TRUE(engine.run([&](const nbatch::RequestResult& r) {
      collected.push_back(r);
    }).interrupted);
  }
  nbatch::BatchConfig reCfg = ckCfg;
  reCfg.abortAfterCheckpoints = 0;
  reCfg.restore = true;
  {
    nbatch::BatchEngine engine(reCfg);
    engine.add(reqs);
    engine.run([&](const nbatch::RequestResult& r) { collected.push_back(r); });
  }
  ASSERT_EQ(collected.size(), 2u);
  for (const auto& got : collected) {
    const auto it = std::find_if(want.begin(), want.end(), [&](const auto& w) {
      return w.requestIndex == got.requestIndex;
    });
    ASSERT_NE(it, want.end());
    ASSERT_EQ(got.trace.times.size(), it->trace.times.size()) << got.id;
    for (std::size_t i = 0; i < got.trace.times.size(); ++i)
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(got.trace.values[i][v], it->trace.values[i][v]) << got.id;
  }
  std::remove(path.c_str());
}
