// `nglts` — the unified scenario driver. Lists and runs registered
// scenarios with flag overrides for order, scheme, cluster count, fused
// width, end time and mesh scale. See src/cli/scenario.hpp for the
// scenario/registry API and scenarios_builtin.cpp for the workloads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "cli/scenario.hpp"
#include "common/log.hpp"

namespace {

using namespace nglts;
using namespace nglts::cli;

/// The fused widths the engine-type table lists at `p`, as " 1 2 4".
std::string widthList(nglts::solver::Precision p) {
  std::string out;
  for (nglts::int_t w : nglts::solver::fusedWidths(p)) out += ' ' + std::to_string(w);
  return out;
}

void printUsage() {
  std::printf(
      "usage: nglts [--scenario NAME] [options]\n"
      "\n"
      "options:\n"
      "  -s, --scenario NAME   scenario to run (default: quickstart)\n"
      "  -l, --list-scenarios  list registered scenarios and exit\n"
      "      --order N         convergence order, 1..7 (scenario default: usually 4)\n"
      "      --scheme S        time stepping: gts | lts | baseline\n"
      "      --clusters N      number of LTS clusters (>= 1)\n"
      "      --fused W         fused-simulation width, f32:%s, f64:%s\n"
      "                        (batch: max fused-lane packing width)\n"
      "      --end-time T      simulated end time [s]\n"
      "      --ranks N         engine ranks (default 1, lahabra: 4; under\n"
      "                        --transport mpi: the mpirun world size)\n"
      "      --threads N       OpenMP threads per rank for the solver loops (>= 1;\n"
      "                        default: hardware threads / ranks; results are\n"
      "                        bitwise-identical for every value)\n"
      "      --transport T     distributed halo transport: seq | thread | mpi\n"
      "                        (default: seq lockstep, lahabra: thread; mpi needs an\n"
      "                        NGLTS_WITH_MPI build under mpirun; bitwise-identical\n"
      "                        results across transports)\n"
      "      --precision P     arithmetic precision: f64 | f32 (default f64 for\n"
      "                        quickstart/loh1/loh3; fused/lahabra are f32-only;\n"
      "                        f32 accuracy is misfit-gated, see docs/KERNELS.md)\n"
      "      --lambda X        fixed cluster-growth lambda (disables the auto sweep)\n"
      "      --scale S         mesh-resolution multiplier (default 1.0)\n"
      "      --mesh-file F     run on an external Gmsh .msh 4.1 tet mesh instead of\n"
      "                        the scenario's built-in mesh (supersedes --scale;\n"
      "                        see ARCHITECTURE.md \"Scenario ingestion\")\n"
      "      --fault-file F    kinematic finite-fault source file (subfault stanzas\n"
      "                        with moment tensor, onset, sampled moment rate)\n"
      "                        replacing the scenario's built-in point source\n"
      "      --write-mesh F    export the mesh the scenario ran on as Gmsh .msh 4.1\n"
      "                        (re-running it with --mesh-file reproduces the run\n"
      "                        bitwise)\n"
      "      --output PREFIX   write CSV artifacts with this path prefix\n"
      "      --batch-manifest F  batch scenario: request manifest file (one request\n"
      "                        per line: id [source_scale [material_scale [dx dy dz]]])\n"
      "      --batch-size N    batch scenario: synthesize N perturbed requests when\n"
      "                        no manifest is given (default 4)\n"
      "      --checkpoint F    snapshot file for checkpoint/restore\n"
      "      --checkpoint-every N  write a snapshot every N LTS cycles (0 = off)\n"
      "      --restore         resume the batch from the --checkpoint file\n"
      "  -q, --quiet           suppress progress output and INFO log lines\n"
      "  -h, --help            show this help\n",
      widthList(nglts::solver::Precision::kF32).c_str(),
      widthList(nglts::solver::Precision::kF64).c_str());
}

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "nglts: %s\n", message.c_str());
  std::fprintf(stderr, "try 'nglts --help'\n");
  std::exit(2);
}

std::string requireValue(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usageError(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

double parseDouble(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    usageError("invalid number '" + value + "' for " + flag);
  }
}

int_t parseInt(const std::string& flag, const std::string& value) {
  long long v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    usageError("invalid integer '" + value + "' for " + flag);
  }
  // Reject instead of narrowing: a wrapped value would run a different order,
  // rank count, ... than the one asked for.
  if (v < std::numeric_limits<int_t>::min() || v > std::numeric_limits<int_t>::max())
    usageError("integer '" + value + "' out of range for " + flag);
  return static_cast<int_t>(v);
}

} // namespace

int main(int argc, char** argv) {
  registerBuiltinScenarios();
  auto& registry = ScenarioRegistry::instance();

  std::string scenarioName = "quickstart";
  ScenarioOptions opts;
  bool list = false;
  std::vector<std::string> given; // every flag on the command line

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    given.push_back(arg);
    if (arg == "-h" || arg == "--help") {
      printUsage();
      return 0;
    } else if (arg == "-l" || arg == "--list-scenarios") {
      list = true;
    } else if (arg == "-s" || arg == "--scenario") {
      scenarioName = requireValue(argc, argv, i);
    } else if (arg == "--order") {
      opts.order = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--scheme") {
      try {
        opts.scheme = parseScheme(requireValue(argc, argv, i));
      } catch (const std::invalid_argument& e) {
        usageError(e.what());
      }
    } else if (arg == "--clusters") {
      opts.numClusters = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--fused") {
      opts.fusedWidth = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--end-time") {
      opts.endTime = parseDouble(arg, requireValue(argc, argv, i));
    } else if (arg == "--ranks") {
      opts.ranks = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--threads") {
      opts.threads = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--transport") {
      try {
        opts.transport = nglts::parallel::parseTransport(requireValue(argc, argv, i));
      } catch (const std::invalid_argument& e) {
        usageError(e.what());
      }
    } else if (arg == "--precision") {
      try {
        opts.precision = nglts::solver::parsePrecision(requireValue(argc, argv, i));
      } catch (const std::invalid_argument& e) {
        usageError(e.what());
      }
    } else if (arg == "--lambda") {
      opts.lambda = parseDouble(arg, requireValue(argc, argv, i));
    } else if (arg == "--scale") {
      opts.meshScale = parseDouble(arg, requireValue(argc, argv, i));
    } else if (arg == "--mesh-file") {
      opts.meshFile = requireValue(argc, argv, i);
    } else if (arg == "--fault-file") {
      opts.faultFile = requireValue(argc, argv, i);
    } else if (arg == "--write-mesh") {
      opts.writeMesh = requireValue(argc, argv, i);
    } else if (arg == "--output") {
      opts.outputPrefix = requireValue(argc, argv, i);
    } else if (arg == "--batch-manifest") {
      opts.batchManifest = requireValue(argc, argv, i);
    } else if (arg == "--batch-size") {
      opts.batchSize = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--checkpoint") {
      opts.checkpointFile = requireValue(argc, argv, i);
    } else if (arg == "--checkpoint-every") {
      opts.checkpointEvery = parseInt(arg, requireValue(argc, argv, i));
    } else if (arg == "--restore") {
      opts.restore = true;
    } else if (arg == "-q" || arg == "--quiet") {
      opts.quiet = true;
      nglts::setLogLevel(nglts::LogLevel::kWarn); // core INFO lines (lambda sweep, pipeline)
    } else {
      usageError("unknown option '" + arg + "'");
    }
  }

  if (list) {
    std::printf("registered scenarios:\n");
    for (const Scenario* s : registry.list())
      std::printf("  %-12s %s\n", s->name().c_str(), s->description().c_str());
    return 0;
  }

  const Scenario* scenario = registry.find(scenarioName);
  if (!scenario) {
    std::fprintf(stderr, "nglts: unknown scenario '%s'; registered:\n", scenarioName.c_str());
    for (const auto& n : registry.names()) std::fprintf(stderr, "  %s\n", n.c_str());
    return 2;
  }
  const std::vector<std::string> unreadFlags = scenario->unreadFlags();
  std::string unread;
  for (const std::string& flag : given)
    if (std::find(unreadFlags.begin(), unreadFlags.end(), flag) != unreadFlags.end())
      unread += (unread.empty() ? "" : ", ") + flag;
  if (!unread.empty()) usageError("scenario '" + scenarioName + "' does not read " + unread);

  // MPI transport: one nglts process per rank under mpirun. Rank count
  // defaults to the world size (`mpirun -n 4 nglts ... --transport mpi`
  // just works) and only the root prints, so the output matches the
  // in-process transports byte for byte.
  bool mpiRoot = true;
  if (opts.transport == nglts::parallel::Transport::kMpi) {
    nglts::parallel::mpiInit(&argc, &argv);
    if (!opts.ranks) opts.ranks = nglts::parallel::mpiWorldSize();
    mpiRoot = nglts::parallel::mpiWorldRank() == 0;
    if (!mpiRoot) opts.quiet = true;
  }

  try {
    const ScenarioReport report = scenario->run(opts);
    if (mpiRoot) std::printf("%s", report.summary.c_str());
    nglts::parallel::mpiFinalize();
    return 0;
  } catch (const std::invalid_argument& e) {
    usageError(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nglts: scenario '%s' failed: %s\n", scenarioName.c_str(), e.what());
    return 1;
  }
}
