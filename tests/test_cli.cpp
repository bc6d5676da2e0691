#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario.hpp"
#include "common/float_env.hpp"
#include "linalg/kernel_backend.hpp"
#include "mesh/box_gen.hpp"
#include "physics/material.hpp"

namespace nc = nglts::cli;
namespace ns = nglts::solver;
using nglts::solver::TimeScheme;

namespace {

/// Run the `nglts` binary with `flags`; returns what it wrote to stderr
/// (and to stdout if `withStdout`, else stdout is discarded) and stores the
/// wait status in `status`.
std::string cliStderr(const std::string& flags, int& status, bool withStdout = false) {
  const std::string cmd = std::string("'") + NGLTS_CLI_EXE + "' " + flags +
                          (withStdout ? " 2>&1" : " 2>&1 >/dev/null");
  std::FILE* p = popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  std::string out;
  status = -1;
  if (!p) return out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  status = pclose(p);
  return out;
}

} // namespace

TEST(Scenarios, ListsAllBuiltinScenarios) {
  std::vector<std::string> names;
  for (const nc::Scenario* s : nc::scenarios()) {
    names.push_back(s->name());
    EXPECT_EQ(nc::findScenario(s->name()), s);
    EXPECT_FALSE(s->description().empty());
  }
  const std::vector<std::string> expected = {"batch",   "fused", "lahabra",
                                             "loh1",    "loh3",  "quickstart"};
  EXPECT_EQ(names, expected);
  // `nglts --list-scenarios` prints the same list.
  int status = 0;
  const std::string listed = cliStderr("--list-scenarios", status, /*withStdout=*/true);
  EXPECT_EQ(status, 0) << listed;
  for (const std::string& name : expected)
    EXPECT_NE(listed.find("  " + name + " "), std::string::npos) << name << "\n" << listed;
}

TEST(Scenarios, FindUnknownReturnsNull) {
  EXPECT_EQ(nc::findScenario("no-such-scenario"), nullptr);
}

TEST(Scenarios, EachConfiguresValidSimConfig) {
  for (const nc::Scenario* s : nc::scenarios()) {
    const nglts::solver::SimConfig cfg = s->resolveConfig({});
    EXPECT_GE(cfg.order, 1) << s->name();
    EXPECT_LE(cfg.order, 7) << s->name();
    EXPECT_GE(cfg.mechanisms, 0) << s->name();
    EXPECT_GT(cfg.cfl, 0.0) << s->name();
    EXPECT_GE(cfg.numClusters, 1) << s->name();
    EXPECT_GE(cfg.lambda, 0.0) << s->name();
    EXPECT_GT(cfg.attenuationFreq, 0.0) << s->name();
  }
}

TEST(Scenarios, FlagOverridesApply) {
  const nc::Scenario* s = nc::findScenario("quickstart");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions opts;
  opts.order = 3;
  opts.scheme = TimeScheme::kGts;
  opts.numClusters = 5;
  opts.lambda = 0.7;
  opts.threads = 2;
  const auto cfg = s->resolveConfig(opts);
  EXPECT_EQ(cfg.order, 3);
  EXPECT_EQ(cfg.scheme, TimeScheme::kGts);
  EXPECT_EQ(cfg.numClusters, 5);
  EXPECT_DOUBLE_EQ(cfg.lambda, 0.7);
  EXPECT_FALSE(cfg.autoLambda);
  EXPECT_EQ(cfg.numThreads, 2);
}

TEST(Scenarios, ThreadsDefaultIsPositiveOnEveryScenario) {
  // Unset --threads resolves to hardware threads / ranks, never below 1.
  for (const nc::Scenario* s : nc::scenarios()) {
    EXPECT_GE(s->resolveConfig({}).numThreads, 1) << s->name();
    nc::ScenarioOptions manyRanks;
    manyRanks.ranks = 1024; // more ranks than cores must still give >= 1
    EXPECT_GE(s->resolveConfig(manyRanks).numThreads, 1) << s->name();
  }
}

TEST(Scenarios, OutOfRangeOverridesThrow) {
  const nc::Scenario* s = nc::findScenario("quickstart");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions bad;
  bad.order = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.numClusters = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.numClusters = ns::kMaxClusters + 1;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  // lambda lives in (0.5, 1]: both ends are checked here, not by the
  // clustering after the mesh is built.
  for (const double lambda : {-1.0, 0.3, 0.5, 1.5}) {
    bad = {};
    bad.lambda = lambda;
    EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument) << lambda;
  }
  bad = {};
  bad.meshScale = 0.0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.endTime = std::nan("");
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.ranks = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  // --threads 0 is a hard error (it is not "serial"; that is --threads 1).
  bad = {};
  bad.threads = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  EXPECT_THROW(s->run(bad), std::invalid_argument);
  bad = {};
  bad.threads = -4;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);

  // 5 is in neither precision's row of the engine-type table. Every
  // scenario, batch included, rejects it in resolveConfig and in run, and
  // names the widths listed at its own precision.
  bad = {};
  bad.fusedWidth = 5;
  for (const nc::Scenario* sc : nc::scenarios()) {
    const bool f32 = sc->resolveConfig({}).precision == ns::Precision::kF32;
    const std::string widths = f32 ? "f32 widths: 1 2 4 8 16" : "f64 widths: 1 2 4";
    for (const bool run : {false, true}) {
      try {
        if (run) sc->run(bad);
        else sc->resolveConfig(bad);
        ADD_FAILURE() << sc->name() << (run ? " run" : " resolveConfig") << " accepted --fused 5";
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(std::string(e.what()).ends_with(widths)) << sc->name() << ": " << e.what();
      }
    }
  }
}

TEST(EngineTypes, EveryPairRuns) {
  // One tiny one-rank engine per listed (precision, width) pair, one cycle
  // each: the dispatch reaches the pair it was asked for.
  nglts::mesh::BoxSpec spec;
  for (auto& planes : spec.planes) planes = nglts::mesh::uniformPlanes(0.0, 400.0, 2);
  const nglts::mesh::TetMesh mesh = nglts::mesh::generateBox(spec);
  const std::vector<nglts::physics::Material> mats(
      mesh.numElements(), nglts::physics::elasticMaterial(2600.0, 3000.0, 1700.0));
  for (const ns::Precision p : {ns::Precision::kF32, ns::Precision::kF64}) {
    for (const nglts::int_t w : ns::fusedWidths(p)) {
      SCOPED_TRACE(std::string(ns::precisionName(p)) + " W = " + std::to_string(w));
      ns::SimConfig cfg;
      cfg.order = 2;
      cfg.precision = p;
      ns::dispatchEngineType(p, w, [&]<typename Real, int W>() {
        ns::Simulation<Real, W> sim(mesh, mats, cfg);
        EXPECT_EQ(sim.runCycles(1).cycles, 1u);
        EXPECT_EQ(ns::precisionOf<Real>(), p);
        EXPECT_EQ(W, w);
      });
    }
  }
}

TEST(EngineTypes, RejectsUnlistedPairs) {
  const auto message = [](ns::Precision p, nglts::int_t w) -> std::string {
    try {
      ns::checkEngineType(p, w);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_TRUE(message(ns::Precision::kF64, 8).ends_with("f64 widths: 1 2 4"))
      << message(ns::Precision::kF64, 8);
  EXPECT_TRUE(message(ns::Precision::kF32, 3).ends_with("f32 widths: 1 2 4 8 16"))
      << message(ns::Precision::kF32, 3);
}

TEST(Scenarios, ParseSchemeRoundTrips) {
  EXPECT_EQ(nc::parseScheme("gts"), TimeScheme::kGts);
  EXPECT_EQ(nc::parseScheme("lts"), TimeScheme::kLtsNextGen);
  EXPECT_EQ(nc::parseScheme("baseline"), TimeScheme::kLtsBaseline);
  EXPECT_THROW(nc::parseScheme("warp"), std::invalid_argument);
  for (auto scheme : {TimeScheme::kGts, TimeScheme::kLtsNextGen, TimeScheme::kLtsBaseline})
    EXPECT_EQ(nc::parseScheme(nc::schemeName(scheme)), scheme);
}

TEST(Scenarios, QuickstartRunsAndProducesFiniteSeismogram) {
  const nc::Scenario* s = nc::findScenario("quickstart");
  ASSERT_NE(s, nullptr);
  // Coarse mesh + short end time: a few LTS cycles, seconds of runtime.
  nc::ScenarioOptions opts;
  opts.meshScale = 0.4;
  opts.order = 3;
  opts.endTime = 0.3;
  opts.quiet = true;
  const nc::ScenarioReport report = s->run(opts);
  EXPECT_EQ(report.config.order, 3);
  EXPECT_GT(report.stats.cycles, 0u);
  EXPECT_GE(report.stats.simulatedTime, 0.3);
  EXPECT_GT(report.stats.elementUpdates, 0u);
  ASSERT_FALSE(report.trace.empty());
  for (double v : report.trace) EXPECT_TRUE(std::isfinite(v));
  // CPU detection picks the vector kernels wherever build and CPU run them.
  if (nglts::linalg::resolveKernelBackend(nglts::linalg::KernelBackend::kAuto) ==
      nglts::linalg::KernelBackend::kVector)
    EXPECT_NE(report.summary.find("kernel backend: vector("), std::string::npos)
        << report.summary;
}

TEST(Scenarios, OperatorDataIsSizedByThePhysics) {
  // Every owned element stores 5,760 B of elastic operators at f64; only an
  // anelastic run adds its 3,672 B of anelastic blocks plus 12 coupling
  // values per mechanism. Summed over ranks, so a 2-rank run counts each
  // element once.
  nc::ScenarioOptions opts;
  opts.ranks = 2;
  opts.endTime = 0.05;
  opts.threads = 1;
  opts.quiet = true;
  const nc::ScenarioReport loh1 = nc::findScenario("loh1")->run(opts);
  ASSERT_EQ(loh1.config.mechanisms, 0);
  EXPECT_EQ(loh1.operatorBytes.elastic, 432u * 5760);
  EXPECT_EQ(loh1.operatorBytes.anelastic, 0u);
  EXPECT_NE(loh1.summary.find("operator data: 2.5 MB elastic + 0.0 MB anelastic\n"),
            std::string::npos)
      << loh1.summary;

  opts = {};
  opts.meshScale = 0.35;
  opts.endTime = 0.03;
  opts.threads = 1;
  opts.quiet = true;
  const nc::ScenarioReport loh3 = nc::findScenario("loh3")->run(opts);
  ASSERT_EQ(loh3.config.mechanisms, 3);
  EXPECT_EQ(loh3.operatorBytes.elastic, 450u * 5760);
  EXPECT_EQ(loh3.operatorBytes.anelastic, 450u * (3672 + 3 * 12 * 8));
  EXPECT_NE(loh3.summary.find("operator data: 2.6 MB elastic + 1.8 MB anelastic\n"),
            std::string::npos)
      << loh3.summary;
}

TEST(Cli, QuietSilencesCoreInfoLinesOnLahabra) {
  // The λ-sweep and pipeline INFO lines come from the core logger, not the
  // scenario progress output; -q must silence both. The summary (stdout)
  // has none either.
  auto outputOf = [](const std::string& flags) {
    int status = 0;
    const std::string out =
        cliStderr("-s lahabra --scale 0.3 --ranks 2 --threads 1 --end-time 0.01 " + flags, status,
                  /*withStdout=*/true);
    EXPECT_EQ(status, 0) << flags << "\n" << out;
    return out;
  };
  EXPECT_NE(outputOf("").find("[nglts INFO "), std::string::npos)
      << "precondition: without -q the run logs INFO lines";
  const std::string quiet = outputOf("-q");
  EXPECT_EQ(quiet.find("[nglts INFO "), std::string::npos) << quiet;
  // lahabra is single-precision; its solver threads (rank threads here)
  // flush subnormals wherever the platform can.
  EXPECT_NE(quiet.find("precision: f32\n"), std::string::npos) << quiet;
  if (nglts::kFlushDenormals)
    EXPECT_NE(quiet.find("denormals: flush-to-zero\n"), std::string::npos) << quiet;
}

TEST(Cli, OutOfRangeIntegerFlagsAreRejected) {
  // A value that does not fit the 32-bit flag type must not wrap into a
  // different run (--order 4294967300 would otherwise run order 4).
  for (const char* flag : {"--order 4294967300", "--ranks 4294967298", "--threads -4294967295"}) {
    int status = 0;
    const std::string err =
        cliStderr(std::string("-s quickstart --scale 0.3 --end-time 0.01 -q ") + flag, status);
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << "\n" << err;
    const std::string name = std::string(flag).substr(0, std::strchr(flag, ' ') - flag);
    EXPECT_NE(err.find("out of range for " + name), std::string::npos) << err;
  }
}

TEST(Cli, BadValuesAndInputFilesAreUsageErrors) {
  // Each run exits 2 with a message naming what is wrong, before it runs.
  const std::string dir = ::testing::TempDir();
  // A .msh cut off inside its $Nodes section, a fault stanza without its
  // moment, a NaN moment and a NaN source scale in a batch manifest: each
  // error names file:line.
  const std::string truncatedMesh = dir + "test_cli_truncated.msh";
  const std::string badFault = dir + "test_cli_bad_fault.txt";
  const std::string nanFault = dir + "test_cli_nan_fault.txt";
  const std::string nanManifest = dir + "test_cli_nan_manifest.txt";
  for (const auto& [path, text] :
       {std::pair{truncatedMesh, "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n1 4 1 4\n"
                                 "3 1 0 4\n1\n2\n"},
        std::pair{badFault, "subfault\nposition 0 0 0\n"},
        std::pair{nanFault, "subfault\nposition 0 0 0\nmoment 0 0 0 nan 0 0\n"},
        std::pair{nanManifest, "a 1.0\nb nan\n"}}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(text, f);
    std::fclose(f);
  }
  const std::string tooManyClusters = std::to_string(ns::kMaxClusters + 1);
  const std::pair<std::string, std::string> cases[] = {
      // inf passes the "> 0" flag check; the engine (and the batch config)
      // reject it with a message naming the value instead of running 0
      // cycles.
      {"-s quickstart --scale 0.3 -q --end-time inf", "end time inf"},
      {"-s batch --batch-size 1 --scale 0.3 -q --end-time inf", "endTime must be finite"},
      // Ranges are checked before the mesh: the missing mesh file is never
      // opened.
      {"-s quickstart --end-time 0.01 -q --lambda 0.3 --mesh-file /nonexistent.msh",
       "lambda must be in (0.5, 1]"},
      {"-s quickstart --scale 0.3 --end-time 0.01 -q --lambda 1.5", "lambda must be in (0.5, 1]"},
      {"-s quickstart --scale 0.3 --end-time 0.01 -q --clusters " + tooManyClusters,
       "numClusters must be in 1.." + std::to_string(ns::kMaxClusters)},
      {"-s quickstart --end-time 0.01 -q --mesh-file '" + truncatedMesh + "'",
       truncatedMesh + ":8: unexpected end of file inside $Nodes"},
      {"-s quickstart --scale 0.3 --end-time 0.01 -q --fault-file '" + badFault + "'",
       badFault + ":1: subfault missing 'moment'"},
      {"-s quickstart --scale 0.3 --end-time 0.01 -q --fault-file '" + nanFault + "'",
       nanFault + ":3: invalid number 'nan'"},
      {"-s batch --scale 0.3 --end-time 0.01 -q --batch-manifest '" + nanManifest + "'",
       nanManifest + ":2: bad source_scale 'nan'"},
  };
  for (const auto& [flags, expected] : cases) {
    int status = 0;
    const std::string err = cliStderr(flags, status);
    ASSERT_TRUE(WIFEXITED(status)) << flags << "\n" << err;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags << "\n" << err;
    EXPECT_NE(err.find(expected), std::string::npos) << err;
  }
  for (const std::string& path : {truncatedMesh, badFault, nanFault, nanManifest})
    std::remove(path.c_str());
}

TEST(Cli, RemovedOptionsAreUsageErrors) {
  // Removed flags fail as usage errors instead of silently running the
  // remaining variant.
  const std::pair<const char*, const char*> cases[] = {
      {"--kernel scalar", "unknown option '--kernel'"},
      {"--executor dynamic", "unknown option '--executor'"},
      {"--overlap", "unknown option '--overlap'"},
  };
  for (const auto& [flag, expected] : cases) {
    int status = 0;
    const std::string err =
        cliStderr(std::string("-s quickstart --scale 0.3 --end-time 0.01 -q ") + flag, status);
    ASSERT_TRUE(WIFEXITED(status)) << flag << "\n" << err;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << "\n" << err;
    EXPECT_NE(err.find(expected), std::string::npos) << err;
  }
}

TEST(Cli, FlagsTheScenarioDoesNotReadAreUsageErrors) {
  // A flag the chosen scenario never reads fails before anything runs,
  // naming the scenario and every such flag, instead of running without it
  // (no snapshot, no manifest check, no exported mesh, no CSV).
  const std::pair<const char*, const char*> cases[] = {
      {"-s quickstart --scale 0.3 --end-time 0.05 -q --checkpoint-every 3 --restore "
       "--batch-size 9",
       "scenario 'quickstart' does not read --checkpoint-every, --restore, --batch-size"},
      {"-s loh1 --scale 0.3 --end-time 0.05 -q --batch-manifest /nonexistent",
       "scenario 'loh1' does not read --batch-manifest"},
      {"-s batch --batch-size 1 --scale 0.3 --end-time 0.05 -q --ranks 3 --transport thread "
       "--write-mesh test_cli_unread.msh",
       "scenario 'batch' does not read --ranks, --transport, --write-mesh"},
      {"-s lahabra --scale 0.3 --end-time 0.01 -q --output test_cli_unread_",
       "scenario 'lahabra' does not read --output"},
  };
  for (const auto& [flags, expected] : cases) {
    int status = 0;
    const std::string err = cliStderr(flags, status);
    ASSERT_TRUE(WIFEXITED(status)) << flags << "\n" << err;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags << "\n" << err;
    EXPECT_NE(err.find(expected), std::string::npos) << err;
  }
}

TEST(Cli, MpiTransportOnOneRankNeedsAnMpiBuild) {
  // `--transport` reaches the engine at --ranks 1 as well: a build without
  // MPI fails the run (exit 1) instead of silently running in-process.
  if (nglts::parallel::mpiSupport()) GTEST_SKIP() << "built with real MPI";
  int status = 0;
  const std::string err = cliStderr(
      "-s quickstart --scale 0.3 --end-time 0.01 -q --ranks 1 --transport mpi", status);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find("MPI transport requested but this binary was built without MPI support"),
            std::string::npos)
      << err;
}

TEST(Cli, RunEndingBeforeTheWaveArrivesReportsMisfitAsNotAvailable) {
  // These runs end before the wave reaches the receiver, so the reference
  // trace is all zeros and the energy misfit is undefined: the summary says
  // so and the run still succeeds.
  for (const char* flags : {"-s loh3 --scale 0.35 --order 3 --end-time 0.03",
                            "-s fused --fused 8 --scale 0.35 --end-time 0.01"}) {
    int status = 0;
    const std::string out = cliStderr(flags, status, /*withStdout=*/true);
    ASSERT_TRUE(WIFEXITED(status)) << flags << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(status), 0) << flags << "\n" << out;
    EXPECT_NE(out.find("n/a (zero reference trace)"), std::string::npos) << out;
  }
}

TEST(Cli, BaselineRunsReportTheirRawPayload) {
  // The baseline scheme ships trimmed derivative stacks and raw B3 whatever
  // the face-compression setting; the exchange line must say so.
  int status = 0;
  const std::string out = cliStderr(
      "-s quickstart --scheme baseline --ranks 2 --scale 0.35 --order 3 --end-time 0.05", status,
      /*withStdout=*/true);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  EXPECT_NE(out.find("messages (trimmed derivative stacks and raw B3)"), std::string::npos) << out;
  EXPECT_EQ(out.find("face-local compression"), std::string::npos) << out;
}

namespace {

std::string readFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string data;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) data.append(buf, n);
  std::fclose(f);
  return data;
}

} // namespace

TEST(Cli, FusedWritesEveryLaneAndRankCountsAgreeBitwise) {
  // `--output` writes receiver 0's vx for all W lanes; the file does not
  // depend on the rank count.
  const std::string dir = ::testing::TempDir();
  std::string files[2];
  for (int ranks = 1; ranks <= 2; ++ranks) {
    const std::string prefix = dir + "nglts_fused_r" + std::to_string(ranks) + "_";
    const std::string path = prefix + "fused_seismograms.csv";
    std::remove(path.c_str());
    int status = 0;
    const std::string out =
        cliStderr("-s fused --fused 8 --scale 0.35 --end-time 0.3 -q --ranks " +
                      std::to_string(ranks) + " --output '" + prefix + "'",
                  status, /*withStdout=*/true);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    ASSERT_EQ(WEXITSTATUS(status), 0) << out;
    files[ranks - 1] = readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(files[ranks - 1].empty()) << path << " not written\n" << out;
  }
  EXPECT_EQ(files[0], files[1]) << "2-rank lane traces differ from the 1-rank ones";

  // Header plus 300 samples, each row time + 8 lanes, with signal.
  std::size_t rows = 0, pos = 0;
  bool signal = false;
  while (pos < files[0].size()) {
    const std::size_t eol = files[0].find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string row = files[0].substr(pos, eol - pos);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 8) << "row " << rows << ": " << row;
    if (rows == 0) EXPECT_EQ(row, "time,vx0,vx1,vx2,vx3,vx4,vx5,vx6,vx7");
    for (std::size_t c = row.find(','); rows > 0 && c != std::string::npos;) {
      const std::size_t next = row.find(',', c + 1);
      const std::string v = row.substr(c + 1, next - c - 1);
      signal = signal || (v != "0" && v != "-0");
      c = next;
    }
    ++rows;
    pos = eol + 1;
  }
  EXPECT_EQ(rows, 301u);
  EXPECT_TRUE(signal) << "every lane trace is zero";
}

TEST(Scenarios, GtsPipelineClustersAndPartitionsOneCluster) {
  // Under GTS the pipeline scenarios cluster (and weight their partition)
  // by the one cluster the engine steps, not by the LTS cluster count.
  nc::ScenarioOptions opts;
  opts.scheme = TimeScheme::kGts;
  opts.ranks = 2;
  opts.endTime = 0.02;
  opts.quiet = true;
  const nc::ScenarioReport r = nc::findScenario("loh1")->run(opts);
  EXPECT_NE(r.summary.find("clusters (lambda 1): C1=432\n"), std::string::npos) << r.summary;
  EXPECT_NE(r.summary.find("theoretical LTS speedup: 1\n"), std::string::npos) << r.summary;
  EXPECT_EQ(r.clusterHistogram, std::vector<nglts::idx_t>{432});
}

TEST(Scenarios, EmptyTopClustersAreDropped) {
  // --clusters is an upper bound: quickstart at this scale populates 3
  // clusters, and asking for 10 steps those 3 only — same histogram, same
  // cycles of 4 cluster-0 steps, same trace bits — instead of one 512-step
  // cycle that overshoots the end time by 119x.
  auto run = [](nglts::int_t clusters) {
    nc::ScenarioOptions opts;
    opts.meshScale = 0.3;
    opts.endTime = 0.01;
    opts.numClusters = clusters;
    opts.lambda = 1.0;
    opts.threads = 1;
    opts.quiet = true;
    return nc::findScenario("quickstart")->run(opts);
  };
  const nc::ScenarioReport three = run(3), ten = run(10);
  EXPECT_EQ(three.clusterHistogram.size(), 3u);
  EXPECT_EQ(ten.clusterHistogram, three.clusterHistogram);
  EXPECT_EQ(ten.stats.cycles, three.stats.cycles);
  EXPECT_EQ(ten.stats.simulatedTime, three.stats.simulatedTime);
  EXPECT_LT(ten.stats.simulatedTime, 0.1);
  ASSERT_EQ(ten.trace.size(), three.trace.size());
  EXPECT_EQ(
      std::memcmp(ten.trace.data(), three.trace.data(), three.trace.size() * sizeof(double)), 0);
}

namespace {

/// Every scenario's primary run takes one engine path, on 1 rank and on 2.
/// The two must agree to the bit in trace, clustering and work done.
void expectRanksAgree(const std::string& scenario, std::optional<nglts::int_t> fused = {}) {
  const nc::Scenario* s = nc::findScenario(scenario);
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions opts;
  opts.meshScale = 0.35;
  opts.order = 3;
  opts.endTime = 0.3;
  opts.quiet = true;
  opts.fusedWidth = fused;
  opts.ranks = 1;
  const nc::ScenarioReport one = s->run(opts);
  opts.ranks = 2;
  const nc::ScenarioReport two = s->run(opts);

  ASSERT_FALSE(one.trace.empty()) << scenario;
  ASSERT_EQ(one.trace.size(), two.trace.size()) << scenario;
  EXPECT_EQ(std::memcmp(one.trace.data(), two.trace.data(), one.trace.size() * sizeof(double)), 0)
      << scenario << ": 2-rank trace differs from the 1-rank trace";
  bool signal = false;
  for (double v : one.trace) signal = signal || v != 0.0;
  EXPECT_TRUE(signal) << scenario << ": trace carries no signal";
  EXPECT_FALSE(one.clusterHistogram.empty()) << scenario;
  EXPECT_EQ(one.clusterHistogram, two.clusterHistogram) << scenario;
  EXPECT_GT(one.stats.elementUpdates, 0u) << scenario;
  EXPECT_EQ(one.stats.elementUpdates, two.stats.elementUpdates) << scenario;
  EXPECT_EQ(one.stats.flops, two.stats.flops) << scenario;
  EXPECT_EQ(one.summary.find("distributed run:"), std::string::npos) << one.summary;
  EXPECT_NE(two.summary.find("distributed run: 2 ranks"), std::string::npos) << two.summary;
}

} // namespace

TEST(ScenarioRanks, QuickstartOneAndTwoRanksAgreeBitwise) { expectRanksAgree("quickstart"); }
TEST(ScenarioRanks, Loh1OneAndTwoRanksAgreeBitwise) { expectRanksAgree("loh1"); }
TEST(ScenarioRanks, Loh3OneAndTwoRanksAgreeBitwise) { expectRanksAgree("loh3"); }
TEST(ScenarioRanks, FusedOneAndTwoRanksAgreeBitwise) { expectRanksAgree("fused", 8); }
