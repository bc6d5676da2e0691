#pragma once
// Unified scenario CLI (the `nglts` driver): every workload — the box
// quickstart, the LOH.3 seismogram comparison, the La Habra-like production
// pipeline, the fused ensemble — is a `Scenario` registered in a global
// `ScenarioRegistry`. The driver binary resolves one registry entry from
// `--scenario NAME`, applies flag overrides (`ScenarioOptions`) on top of
// the scenario's defaults and runs it. New workloads are one registry entry
// instead of a new main().
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "parallel/comm.hpp"
#include "solver/simulation.hpp"

namespace nglts::cli {

/// Flag overrides applied on top of a scenario's built-in defaults. Every
/// optional field that is left unset (`std::nullopt`) keeps the scenario
/// default, so `ScenarioOptions{}` reproduces the canonical run of each
/// scenario exactly.
struct ScenarioOptions {
  /// Convergence order O (polynomial degree O-1); valid range 1..7.
  /// Paper symbol: O in the O(N) basis-size formulas of Sec. III.
  std::optional<int_t> order;
  /// Time-stepping scheme: GTS, the paper's next-generation clustered LTS
  /// (Sec. V), or the buffer+derivative baseline of [15] (Tab. I).
  std::optional<solver::TimeScheme> scheme;
  /// Number of rate-2 LTS clusters N_c >= 1 (ignored under GTS).
  /// Paper symbol: number of clusters in Figs. 4/5.
  std::optional<int_t> numClusters;
  /// Fused-simulation width W (Sec. IV-A): number of forward simulations
  /// advanced in one solver execution; for `batch` the max fused-lane
  /// packing width (default 4). Valid: any width the engine-type table
  /// (common/types.hpp) lists at the scenario's resolved precision; other
  /// values throw `std::invalid_argument` naming the listed ones.
  std::optional<int_t> fusedWidth;
  /// Simulated end time [s] (> 0). Scenarios run full LTS cycles until at
  /// least this much physical time is covered.
  std::optional<double> endTime;
  /// Number of distributed ranks (>= 1). Every scenario but `batch` runs
  /// its primary simulation through `parallel::DistributedSimulation` on
  /// this many ranks — over the pipeline's partition (loh1, lahabra), a
  /// partition of the LTS-weighted dual graph (Sec. VI), or on one rank an
  /// all-zero one; results are bitwise-identical for every rank count
  /// (Sec. V-C).
  std::optional<int_t> ranks;
  /// OpenMP threads per rank for the executor's element loops
  /// (`SimConfig::numThreads`, >= 1; 1 = serial). Unset = all hardware
  /// threads divided evenly among the ranks. Results are bitwise-identical
  /// for every value — a pure performance knob.
  std::optional<int_t> threads;
  /// Halo transport of the distributed engine (`--transport`): seq (SeqComm
  /// lockstep, the bitwise reference), thread (one std::thread per rank) or
  /// mpi (one process per rank; requires an NGLTS_WITH_MPI build under
  /// mpirun). Unset keeps the scenario default — seq for quickstart/loh1/
  /// loh3/fused, thread for lahabra. Results are bitwise-identical across
  /// transports.
  std::optional<parallel::Transport> transport;
  /// Arithmetic precision (`SimConfig::precision`, the `--precision` flag):
  /// f64 (the default for quickstart/loh1/loh3) or f32 (accuracy guarded by the
  /// golden-seismogram misfit gates in tests/test_solver_lts.cpp, not by
  /// bitwise identity — see docs/KERNELS.md). The fused and lahabra
  /// scenarios are single-precision by design and reject an explicit f64.
  std::optional<solver::Precision> precision;
  /// Fixed cluster-growth control parameter lambda (>= 0); setting it
  /// disables the scenario's automatic lambda sweep (Sec. V-A).
  std::optional<double> lambda;
  /// Mesh-resolution multiplier (> 0): 1 = the scenario's canonical mesh,
  /// < 1 coarser (fast smoke runs), > 1 finer. Element count scales
  /// roughly with meshScale^3.
  double meshScale = 1.0;
  /// External Gmsh `.msh` 4.1 tet mesh replacing the scenario's built-in
  /// mesh (`--mesh-file`; subset in mesh/gmsh_io.hpp, format docs in
  /// ARCHITECTURE.md "Scenario ingestion"). `meshScale` and the built-in
  /// meshing rule are ignored when set.
  std::string meshFile;
  /// Kinematic finite-fault source file replacing the scenario's built-in
  /// point source (`--fault-file`; format in seismo/fault.hpp). Receivers
  /// stay the scenario's own.
  std::string faultFile;
  /// Export the mesh the scenario actually ran on as Gmsh `.msh` 4.1
  /// (`--write-mesh`) — re-running with `--mesh-file` on the export
  /// reproduces the run bitwise (the round-trip property the mesh-io tests
  /// pin).
  std::string writeMesh;
  /// Prefix for CSV artifacts (seismograms, ...); empty = write no files.
  std::string outputPrefix;
  /// Suppress per-scenario progress printing (the driver still prints the
  /// final report summary).
  bool quiet = false;

  // -- `batch` scenario (src/cli/scenario_batch.cpp) ------------------------
  /// Request manifest file (batch/manifest.hpp format); empty = synthesize
  /// `batchSize` perturbed quickstart requests.
  std::string batchManifest;
  /// Number of synthesized ensemble requests when no manifest is given
  /// (>= 1). Ignored with `batchManifest`.
  int_t batchSize = 4;
  /// Checkpoint cadence in LTS cycles (`--checkpoint-every`; 0 = off).
  idx_t checkpointEvery = 0;
  /// Snapshot file for checkpoint/restore (`--checkpoint`).
  std::string checkpointFile;
  /// Resume the batch from `checkpointFile` (`--restore`).
  bool restore = false;
};

/// What a scenario hands back to the driver (and to tests): the solver
/// configuration it resolved, the performance counters of its primary run,
/// an optional reference seismogram trace, and a printable summary.
struct ScenarioReport {
  /// The `SimConfig` the primary simulation actually ran with (defaults
  /// plus flag overrides) — tests validate this.
  solver::SimConfig config;
  /// Performance and exchange counters of the primary run (for LOH.3 this
  /// is the LTS run, the GTS reference is reported in `summary`). On one
  /// rank, and for `batch`, `messages` and `commBytes` are 0.
  parallel::DistStats stats;
  /// Uniformly resampled x-velocity of lane 0 at the scenario's first
  /// receiver; empty for scenarios without receivers.
  std::vector<double> trace;
  /// Elements per LTS cluster of the primary run, as its engine resolved
  /// them (filled by every scenario but `batch`, on one rank or several).
  /// Tests assert benchmark scenarios actually populate multiple clusters.
  std::vector<idx_t> clusterHistogram;
  /// Operator memory of the primary engine, summed over its ranks (for
  /// `batch`, of its largest fused run).
  solver::OperatorBytes operatorBytes;
  /// Human-readable multi-line result summary (always printed).
  std::string summary;
};

/// One registered workload. Implementations live in scenarios_builtin.cpp
/// and scenario_batch.cpp.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Unique registry key (what `--scenario` matches), e.g. "quickstart".
  virtual std::string name() const = 0;
  /// One-line description shown by `--list-scenarios`.
  virtual std::string description() const = 0;

  /// Resolve the `SimConfig` of the scenario's primary simulation under
  /// `opts` without building a mesh or running anything. Must be cheap and
  /// must throw `std::invalid_argument` on out-of-range overrides.
  virtual solver::SimConfig resolveConfig(const ScenarioOptions& opts) const = 0;

  /// The `nglts` flags this scenario does not read (long form, e.g.
  /// "--restore"). The driver rejects each as a usage error naming the flag
  /// and the scenario, instead of running without it.
  virtual std::vector<std::string> unreadFlags() const = 0;

  /// Build the scenario (mesh, materials, sources, receivers), run it and
  /// report. Throws `std::invalid_argument` on bad options and
  /// `std::runtime_error` on setup failures (e.g. receiver outside mesh).
  virtual ScenarioReport run(const ScenarioOptions& opts) const = 0;
};

/// Process-global scenario registry. Thread-compatible (registration happens
/// once up front; lookups afterwards are const).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Register a scenario; throws `std::invalid_argument` on a duplicate name.
  void add(std::unique_ptr<Scenario> scenario);

  /// Look up by name; nullptr if absent.
  const Scenario* find(const std::string& name) const;

  /// All scenarios, sorted by name.
  std::vector<const Scenario*> list() const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// Register the built-in scenarios (quickstart, loh1, loh3, lahabra, fused,
/// batch) into the global registry. Idempotent — safe to call from multiple
/// entry points (driver main, tests).
void registerBuiltinScenarios();

/// The `batch` scenario (scenario_batch.cpp): ensemble batch execution of
/// perturbed quickstart requests through the `BatchEngine`.
std::unique_ptr<Scenario> makeBatchScenario();

/// Apply the generic `SimConfig` overrides (order, scheme, clusters,
/// precision, lambda, threads) and range-check them. Shared by the
/// scenario implementations (scenarios_builtin.cpp, scenario_batch.cpp);
/// `defaultRanks` only feeds the `--threads` default.
void applyScenarioOverrides(solver::SimConfig& cfg, const ScenarioOptions& opts,
                            int_t defaultRanks = 1);

/// Parse a `--scheme` value: "gts", "lts" (next-generation clustered LTS)
/// or "baseline" (buffer+derivative scheme of [15]).
/// Throws `std::invalid_argument` on anything else.
solver::TimeScheme parseScheme(const std::string& s);

/// Inverse of `parseScheme` (for messages and summaries).
std::string schemeName(solver::TimeScheme scheme);

// -- output helpers shared by the scenario implementations --------------------

/// printf-style append to `out`.
void appendf(std::string& out, const char* fmt, ...);

/// Record the operator memory in a summary ("operator data: 19.9 MB
/// elastic + 0.0 MB anelastic").
void appendOperatorLine(std::string& out, const solver::OperatorBytes& bytes);

/// printf-style progress message on stdout; silent under `opts.quiet`.
void progressf(const ScenarioOptions& opts, const char* fmt, ...);

/// Write seismogram columns as CSV: `header`, then one row per sample with
/// the uniform time tEnd * i / (n - 1) followed by every column, at
/// round-trip precision (golden fixtures are compared against these files).
/// Throws `std::runtime_error` if the file cannot be written.
void writeTraceCsv(const std::string& path, double tEnd,
                   const std::vector<std::vector<double>>& columns, const std::string& header);

} // namespace nglts::cli
