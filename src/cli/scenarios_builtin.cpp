// Built-in scenarios of the `nglts` driver. Each scenario owns its canonical
// defaults (mesh, materials, sources, receivers) and applies
// `ScenarioOptions` overrides on top. Every primary run takes one engine
// path: `withEngine` builds the `DistributedSimulation` engine on however
// many ranks were asked for and hands it to the scenario's single body, and
// `runPrimary` runs and reports it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "batch/batch_engine.hpp"
#include "cli/scenario.hpp"
#include "common/float_env.hpp"
#include "lts/clustering.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "mesh/gmsh_io.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "physics/attenuation.hpp"
#include "pre/pipeline.hpp"
#include "seismo/fault.hpp"
#include "seismo/misfit.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "seismo/velocity_model.hpp"
#include "solver/setup.hpp"
#include "solver/threading.hpp"

namespace nglts::cli {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Record the small-GEMM backend the run's kernels dispatch to, the
/// arithmetic precision and the solver threads' subnormal mode in the
/// scenario summary ("kernel backend: vector(avx2)" / "precision: f64" /
/// "denormals: flush-to-zero"); test_cli and test_precision check these
/// lines to assert that CPU detection picks the vector kernels on SIMD
/// hardware, that --precision f32 actually took effect, and that f32 runs
/// compute with subnormals flushed.
void appendKernelLine(std::string& out, const solver::SimConfig& cfg) {
  appendf(out, "kernel backend: %s\n",
          linalg::resolvedKernelBackendLabel(cfg.kernelBackend).c_str());
  appendf(out, "precision: %s\n", solver::precisionName(cfg.precision));
  appendf(out, "denormals: %s\n", kFlushDenormals ? "flush-to-zero" : "ieee");
}

/// `seismo::energyMisfit(signal, reference)`, or nullopt when the reference
/// energy is zero (the condition energyMisfit rejects) — in a short run the
/// wave may not have reached the receiver yet.
std::optional<double> misfitIfDefined(const std::vector<double>& signal,
                                      const std::vector<double>& reference) {
  double energy = 0.0;
  for (double v : reference) energy += v * v;
  if (energy == 0.0) return std::nullopt;
  return seismo::energyMisfit(signal, reference);
}

/// Summary text of a misfit: "%.3e", or "n/a (zero reference trace)".
std::string misfitText(std::optional<double> misfit) {
  if (!misfit) return "n/a (zero reference trace)";
  std::string out;
  appendf(out, "%.3e", *misfit);
  return out;
}

/// Base of the built-in scenarios. It states a scenario's default fused
/// width (when `--fused` is unset) and whether it runs in double precision
/// as well as single; every width the engine-type table (common/types.hpp)
/// lists at the resolved precision is accepted. `run` hands the pair to
/// `solver::dispatchEngineType`, which calls `Derived::runW<Real, W>(cfg,
/// opts)`.
template <typename Derived, bool kF64, int DefaultW>
class BuiltinScenario : public Scenario {
 public:
  /// The batch scenario's flags.
  std::vector<std::string> unreadFlags() const override {
    return {"--batch-manifest", "--batch-size", "--checkpoint", "--checkpoint-every",
            "--restore"};
  }

  ScenarioReport run(const ScenarioOptions& opts) const final {
    const solver::SimConfig cfg = resolveConfig(opts);
    const auto& self = static_cast<const Derived&>(*this);
    return solver::dispatchEngineType(
        cfg.precision, fusedWidth(opts), [&]<typename Real, int W>() -> ScenarioReport {
          // `checked` pins a single-precision scenario to f32, so its double
          // bodies are never reached and not compiled.
          if constexpr (kF64 || std::is_same_v<Real, float>)
            return self.template runW<Real, W>(cfg, opts);
          else
            throw std::logic_error("scenario '" + name() + "' runs single-precision only");
        });
  }

 protected:
  int_t fusedWidth(const ScenarioOptions& opts) const {
    return opts.fusedWidth.value_or(DefaultW);
  }

  /// For a single-precision scenario, reject an explicit f64 and pin the
  /// precision to f32; then check the fused width at the resolved precision
  /// (`std::invalid_argument` naming the listed widths). Ends every
  /// `resolveConfig`.
  solver::SimConfig checked(solver::SimConfig cfg, const ScenarioOptions& opts) const {
    if constexpr (!kF64) {
      if (opts.precision && *opts.precision != solver::Precision::kF32)
        throw std::invalid_argument("scenario '" + name() +
                                    "' runs single-precision only (drop --precision or pass f32)");
      cfg.precision = solver::Precision::kF32;
    }
    solver::checkEngineType(cfg.precision, fusedWidth(opts));
    return cfg;
  }
};

idx_t scaledCells(idx_t base, double meshScale) {
  return std::max<idx_t>(2, static_cast<idx_t>(std::llround(base * meshScale)));
}

/// Resolve the scenario mesh: the built-in generator unless `--mesh-file`
/// overrides it. `--write-mesh` exports whichever mesh won, so a generated
/// box can be re-run byte-identically through the import path.
template <typename Builtin>
mesh::TetMesh resolveMesh(const ScenarioOptions& opts, Builtin&& builtin) {
  mesh::TetMesh m = opts.meshFile.empty() ? builtin() : mesh::readGmshFile(opts.meshFile);
  if (!opts.writeMesh.empty()) mesh::writeGmshFile(m, opts.writeMesh);
  return m;
}

/// Add the scenario's sources: the subfaults of `--fault-file` when given,
/// the scenario's built-in source otherwise. `laneScale` scales every
/// injected fault source per fused lane (the built-in path applies its own
/// lane scaling inside `builtin`).
template <typename Sim, typename Builtin>
void addConfiguredSources(Sim& sim, const ScenarioOptions& opts, Builtin&& builtin,
                          const std::vector<double>& laneScale = {}) {
  if (opts.faultFile.empty()) {
    builtin(sim);
    return;
  }
  const seismo::FiniteFault fault = seismo::parseFaultFile(opts.faultFile);
  for (const seismo::PointSource& src : fault.pointSources()) sim.addPointSource(src, laneScale);
}

/// Register one of the scenario's built-in receivers. A position outside
/// the mesh (e.g. under `--mesh-file`) is an error naming the scenario and
/// the position, never a silently missing seismogram.
template <typename Sim>
void requireReceiver(Sim& sim, const std::array<double, 3>& x, const std::string& scenario) {
  if (sim.addReceiver(x) >= 0) return;
  std::string msg = "scenario '" + scenario + "': receiver";
  appendf(msg, " (%g, %g, %g) lies outside the mesh", x[0], x[1], x[2]);
  throw std::runtime_error(msg);
}

/// With `--output`, write `columns` sampled uniformly on [0, tEnd] to
/// `<prefix><file>` and note it in the summary.
void writeCsv(const ScenarioOptions& opts, const std::string& file, double tEnd,
              const std::vector<std::vector<double>>& columns, const std::string& header,
              ScenarioReport& report) {
  if (opts.outputPrefix.empty()) return;
  const std::string path = opts.outputPrefix + file;
  writeTraceCsv(path, tEnd, columns, header);
  appendf(report.summary, "wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// The engine path every scenario's primary run takes
// ---------------------------------------------------------------------------

/// The primary run's mesh and materials (external order), plus the rank
/// partition of the pipeline-driven scenarios.
struct EngineInputs {
  mesh::TetMesh mesh;
  std::vector<physics::Material> materials;
  std::vector<int_t> part; ///< empty: `withEngine` resolves the partition
};

/// Cut the weighted dual graph of the clustering `cfg` resolves into
/// `nRanks` parts, and pin that clustering's lambda into `cfg`: the engine's
/// own re-resolution (geometry + CFL + buildClustering, cheap O(n)) then
/// reproduces it without re-running the auto-lambda sweep.
std::vector<int_t> weightedPartition(const mesh::TetMesh& mesh,
                                     const std::vector<physics::Material>& mats,
                                     solver::SimConfig& cfg, int_t nRanks) {
  const auto geo = mesh::computeGeometry(mesh);
  const auto dtCfl = lts::cflTimeSteps(geo, mats, cfg.order, cfg.cfl);
  const auto clustering = solver::resolveClustering(mesh, dtCfl, cfg);
  cfg.lambda = clustering.lambda;
  cfg.autoLambda = false;
  const auto graph =
      partition::buildPartitionGraph(mesh, clustering, partition::PartitionWeighting::kWeighted);
  return partition::partitionGraph(graph, mesh, nRanks).part;
}

/// Build the scenario's primary engine over `in.part` and hand it to `body`,
/// with `--transport` (default `defaultTransport`). Without a given
/// partition one rank owns every element (all zeros; the partitioner is not
/// called) and several ranks cut a weighted one. Every rank count gives
/// bitwise-identical results.
template <typename Real, int W, typename Body>
void withEngine(EngineInputs in, solver::SimConfig cfg, int_t nRanks, const ScenarioOptions& opts,
                parallel::Transport defaultTransport, Body&& body) {
  if (in.part.empty())
    in.part = nRanks == 1 ? std::vector<int_t>(in.mesh.numElements(), 0)
                          : weightedPartition(in.mesh, in.materials, cfg, nRanks);
  parallel::DistConfig dcfg;
  dcfg.sim = cfg;
  dcfg.transport = opts.transport.value_or(defaultTransport);
  parallel::DistributedSimulation<Real, W> sim(std::move(in.mesh), std::move(in.materials),
                                               std::move(in.part), dcfg);
  body(sim);
}

/// Run the primary engine to `tEnd` and record it in `report`: the config
/// and clustering it ran, its counters and the summary lines (clusters,
/// performance and, on several ranks, the exchange). Under MPI the
/// receivers are gathered on rank 0; returns whether this process holds
/// the traces.
template <typename Real, int W>
bool runPrimary(parallel::DistributedSimulation<Real, W>& sim, double tEnd,
                const ScenarioOptions& opts, ScenarioReport& report) {
  const lts::Clustering& clustering = sim.clustering();
  report.clusterHistogram = clustering.clusterSize;
  appendf(report.summary, "clusters:");
  for (idx_t n : clustering.clusterSize)
    appendf(report.summary, " %lld", static_cast<long long>(n));
  appendf(report.summary, "  (%lld elements, lambda %.2f, theoretical speedup %.2fx)\n",
          static_cast<long long>(clustering.cluster.size()), clustering.lambda,
          clustering.theoreticalSpeedup);
  report.operatorBytes = sim.operatorBytes();
  appendOperatorLine(report.summary, report.operatorBytes);
  report.config = sim.config().sim;
  progressf(opts, "running %s on %lld rank%s...\n", schemeName(report.config.scheme).c_str(),
            static_cast<long long>(sim.ranks()), sim.ranks() == 1 ? "" : "s");

  const auto st = sim.run(tEnd);
  report.stats = st;
  appendf(report.summary,
          "%llu cycles (%.3f simulated s) in %.2f s wall — %.3g element updates/s, %.1f GFLOPS\n",
          static_cast<unsigned long long>(st.cycles), st.simulatedTime, st.seconds,
          st.elementUpdatesPerSecond(), st.gflops());
  sim.gatherReceivers();
  // What went over the wire: the baseline scheme never compresses.
  const char* payload = report.config.scheme == solver::TimeScheme::kLtsBaseline
                            ? "trimmed derivative stacks and raw B3"
                            : (sim.config().compressFaces ? "9xF face-local compression"
                                                          : "raw 9xB buffers");
  if (sim.ranks() > 1)
    appendf(report.summary,
            "distributed run: %lld ranks, %s transport, %.2f MB in %llu messages (%s)\n",
            static_cast<long long>(sim.ranks()), parallel::transportName(sim.transport()).c_str(),
            st.commBytes / 1e6, static_cast<unsigned long long>(st.messages), payload);
  return sim.localRank() <= 0;
}

/// Resample lane 0 of receiver 0 to `samples` points on [0, tEnd] into
/// `report.trace`, summarize its peak and write it as `<prefix><file>`.
template <typename Sim>
void reportReceiver0(const Sim& sim, double tEnd, idx_t samples, const ScenarioOptions& opts,
                     const std::string& file, ScenarioReport& report) {
  report.trace = seismo::resample(sim.receiver(0).traces[0], kVelU, tEnd, samples);
  appendf(report.summary, "receiver vx peak: %.4e m/s over %.2f s\n",
          seismo::peakAmplitude(report.trace), tEnd);
  writeCsv(opts, file, tEnd, {report.trace}, "time,vx", report);
}

/// Run the preprocessing pipeline of a pipeline-driven scenario. `pcfg`
/// carries the scenario's domain and meshing rule; the solver fields come
/// from `cfg` and the partition count is `nRanks`. Appends the pipeline
/// summary, honours `--write-mesh`, and pins the swept lambda into `cfg` so
/// the engine reproduces the pipeline clustering without re-running the
/// sweep. Returns the engine inputs over the pipeline's partition.
EngineInputs runScenarioPipeline(const seismo::VelocityModel& model, pre::PipelineConfig pcfg,
                                 solver::SimConfig& cfg, int_t nRanks,
                                 const ScenarioOptions& opts, ScenarioReport& report) {
  pcfg = solver::pipelineConfigFor(std::move(pcfg), cfg, nRanks);
  pcfg.meshFile = opts.meshFile;

  progressf(opts, "running preprocessing pipeline...\n");
  pre::PipelineResult pipe = pre::runPipeline(model, pcfg);
  if (!opts.writeMesh.empty()) mesh::writeGmshFile(pipe.mesh, opts.writeMesh);
  report.summary += pipe.summary();
  report.summary += '\n';
  cfg.lambda = pipe.clustering.lambda;
  cfg.autoLambda = false;
  return {std::move(pipe.mesh), std::move(pipe.materials), std::move(pipe.parts.part)};
}

// ---------------------------------------------------------------------------
// quickstart — 1 km^3 two-layer box (the minimal end-to-end workflow)
// ---------------------------------------------------------------------------

class QuickstartScenario final : public BuiltinScenario<QuickstartScenario, true, 1> {
 public:
  std::string name() const override { return "quickstart"; }
  std::string description() const override {
    return "1 km^3 two-layer viscoelastic box: next-gen LTS, one double-couple "
           "source, one surface receiver";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 3;
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 3;
    cfg.autoLambda = true;
    cfg.attenuationFreq = 2.0;
    applyScenarioOverrides(cfg, opts);
    return checked(cfg, opts);
  }

  template <typename Real, int W>
  ScenarioReport runW(const solver::SimConfig& cfg, const ScenarioOptions& opts) const {
    const double tEnd = opts.endTime.value_or(2.0);

    // A 1 km^3 box, ~100 m elements at scale 1, jittered, free surface on top.
    EngineInputs in;
    in.mesh = resolveMesh(opts, [&] {
      mesh::BoxSpec spec;
      const idx_t cells = scaledCells(10, opts.meshScale);
      spec.planes[0] = mesh::uniformPlanes(0.0, 1000.0, cells);
      spec.planes[1] = mesh::uniformPlanes(0.0, 1000.0, cells);
      spec.planes[2] = mesh::uniformPlanes(-1000.0, 0.0, cells);
      spec.jitter = 0.2;
      spec.freeSurfaceTop = true;
      return mesh::generateBox(spec);
    });
    progressf(opts, "mesh: %lld tetrahedra\n", static_cast<long long>(in.mesh.numElements()));

    // A soft near-surface layer over stiffer rock (drives the clustering).
    in.materials = seismo::materialsForMesh(in.mesh, batch::quickstart::model(), cfg.mechanisms,
                                            cfg.attenuationFreq);

    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    withEngine<Real, W>(std::move(in), cfg, opts.ranks.value_or(1), opts,
                        parallel::Transport::kSeq, [&](auto& sim) {
      // A double-couple point source (or the --fault-file subfaults) and a
      // surface receiver.
      addConfiguredSources(sim, opts,
                           [](auto& s) { s.addPointSource(batch::quickstart::source()); });
      requireReceiver(sim, batch::quickstart::kReceiverPosition, name());
      if (runPrimary(sim, tEnd, opts, report))
        reportReceiver0(sim, tEnd, 101, opts, "quickstart_seismogram.csv", report);
    });
    return report;
  }
};

// ---------------------------------------------------------------------------
// loh3 — layer over halfspace with constant-Q attenuation (paper Sec. VII-B)
// ---------------------------------------------------------------------------

class Loh3Scenario final : public BuiltinScenario<Loh3Scenario, true, 1> {
 public:
  std::string name() const override { return "loh3"; }
  std::string description() const override {
    return "LOH.3 layer-over-halfspace benchmark: GTS reference vs the "
           "configured scheme, seismogram misfit E";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 3;
    cfg.attenuationFreq = 1.0;
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 3;
    cfg.receiverSampleDt = 0.005;
    applyScenarioOverrides(cfg, opts);
    cfg.autoLambda = !opts.lambda && cfg.scheme != solver::TimeScheme::kGts;
    return checked(cfg, opts);
  }

  template <typename Real, int W>
  ScenarioReport runW(const solver::SimConfig& cfg, const ScenarioOptions& opts) const {
    solver::SimConfig gtsCfg = cfg;
    gtsCfg.scheme = solver::TimeScheme::kGts;
    gtsCfg.autoLambda = false;
    const double tEnd = opts.endTime.value_or(2.0);

    EngineInputs ref = inputs(cfg, opts);
    solver::Simulation<Real, W> gts(std::move(ref.mesh), std::move(ref.materials), gtsCfg);
    addSetup(gts, opts);
    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    progressf(opts, "running GTS reference...\n");
    const solver::PerfStats sg = gts.run(tEnd);

    withEngine<Real, W>(inputs(cfg, opts), cfg, opts.ranks.value_or(1), opts,
                        parallel::Transport::kSeq, [&](auto& primary) {
      addSetup(primary, opts);
      const bool root = runPrimary(primary, tEnd, opts, report);
      appendf(report.summary, "GTS: %.2f s wall;  %s: %.2f s wall  => measured speedup %.2fx\n",
              sg.seconds, schemeName(cfg.scheme).c_str(), report.stats.seconds,
              sg.seconds / report.stats.seconds);
      if (root) compareReceivers(opts, cfg, tEnd, gts, primary, report);
    });
    return report;
  }

 private:
  EngineInputs inputs(const solver::SimConfig& cfg, const ScenarioOptions& opts) const {
    // Scaled-down LOH.3: 6 km x 6 km x 3 km domain, velocity-aware vertical
    // grading across the 1 km layer interface (unless --mesh-file overrides).
    EngineInputs in;
    in.mesh = resolveMesh(opts, [&] {
      mesh::BoxSpec spec;
      const idx_t lateral = scaledCells(14, opts.meshScale);
      spec.planes[0] = mesh::uniformPlanes(0.0, 6000.0, lateral);
      spec.planes[1] = mesh::uniformPlanes(0.0, 6000.0, lateral);
      spec.planes[2] = mesh::gradedPlanes(-3000.0, 0.0, [&](double z) {
        return (z > -1000.0 ? 260.0 : 450.0) / opts.meshScale;
      });
      spec.jitter = 0.2;
      spec.freeSurfaceTop = true;
      return mesh::generateBox(spec);
    });
    const seismo::Loh3Model model(0.0);
    in.materials =
        seismo::materialsForMesh(in.mesh, model, cfg.mechanisms, cfg.attenuationFreq);
    return in;
  }

  template <typename Sim>
  void addSetup(Sim& sim, const ScenarioOptions& opts) const {
    // LOH-style source: M_xy double couple at 2 km depth, Brune moment rate
    // (or the --fault-file subfaults).
    addConfiguredSources(sim, opts, [](auto& s) {
      auto stf = std::make_shared<seismo::BrunePulse>(0.1, 1e16);
      s.addPointSource(
          seismo::momentTensorSource({3000.0, 3000.0, -2000.0}, {0, 0, 0, 1.0, 0, 0}, stf));
    });
    // The benchmark's "ninth receiver" direction, scaled into the domain.
    requireReceiver(sim, {4800.0, 4200.0, -20.0}, name());
    requireReceiver(sim, {3900.0, 3600.0, -20.0}, name());
  }

  /// Per-receiver misfit vs the GTS reference plus the CSV artifact; works
  /// for a primary run on any number of ranks, at either precision (traces
  /// are resampled to double either way).
  template <typename Real, int W>
  void compareReceivers(const ScenarioOptions& opts, const solver::SimConfig& cfg, double tEnd,
                        solver::Simulation<Real, W>& gts, solver::Simulation<Real, W>& primary,
                        ScenarioReport& report) const {
    const idx_t samples = 400;
    std::vector<std::vector<double>> columns;
    std::string header = "time";
    for (idx_t r = 0; r < gts.numReceivers(); ++r) {
      const auto a = seismo::resample(gts.receiver(r).traces[0], kVelU, tEnd, samples);
      const auto b = seismo::resample(primary.receiver(r).traces[0], kVelU, tEnd, samples);
      appendf(report.summary, "receiver %lld: misfit E (%s vs GTS) = %s, peak %.3e m/s\n",
              static_cast<long long>(r), schemeName(cfg.scheme).c_str(),
              misfitText(misfitIfDefined(b, a)).c_str(), seismo::peakAmplitude(a));
      if (r == 0) report.trace = b;
      columns.push_back(a);
      columns.push_back(b);
      appendf(header, ",r%lld_vx_gts,r%lld_vx_%s", static_cast<long long>(r),
              static_cast<long long>(r), schemeName(cfg.scheme).c_str());
    }
    writeCsv(opts, "loh3_seismograms.csv", tEnd, columns, header, report);
  }
};

// ---------------------------------------------------------------------------
// loh1 — SCEC LOH.1 elastic layer over halfspace through the pipeline
// ---------------------------------------------------------------------------

class Loh1Scenario final : public BuiltinScenario<Loh1Scenario, true, 1> {
 public:
  std::string name() const override { return "loh1"; }
  std::string description() const override {
    return "SCEC LOH.1 elastic layer-over-halfspace benchmark through the "
           "preprocessing pipeline: kinematic source support, multi-cluster "
           "LTS, golden-gated seismogram";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 0; // LOH.1 is the elastic sibling of LOH.3
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 4;
    cfg.autoLambda = true;
    cfg.receiverSampleDt = 0.005;
    applyScenarioOverrides(cfg, opts);
    cfg.autoLambda = !opts.lambda && cfg.scheme != solver::TimeScheme::kGts;
    return checked(cfg, opts);
  }

  template <typename Real, int W>
  ScenarioReport runW(solver::SimConfig cfg, const ScenarioOptions& opts) const {
    const double tEnd = opts.endTime.value_or(2.0);
    const int_t nRanks = opts.ranks.value_or(1);

    // Scaled-down LOH.1 domain (6 x 6 x 3 km) through the velocity-aware
    // pipeline: the layer/halfspace vs contrast (2000 vs 3464) grades the
    // mesh vertically, spreading the CFL steps across multiple rate-2
    // clusters — a genuine LTS workload even at smoke-test scales.
    pre::PipelineConfig pcfg;
    pcfg.lo = {0.0, 0.0, -3000.0};
    pcfg.hi = {6000.0, 6000.0, 0.0};
    pcfg.maxFrequency = 1.0 * opts.meshScale;
    pcfg.elementsPerWavelength = 2.0;
    pcfg.minEdge = 200.0;
    pcfg.maxEdge = 2500.0;
    pcfg.jitter = 0.2;
    ScenarioReport report;
    EngineInputs in = runScenarioPipeline(model(), pcfg, cfg, nRanks, opts, report);
    appendKernelLine(report.summary, cfg);

    withEngine<Real, W>(std::move(in), cfg, nRanks, opts, parallel::Transport::kSeq,
                        [&](auto& sim) {
      // The benchmark's point double couple at 2 km depth (or --fault-file).
      addConfiguredSources(sim, opts, [](auto& s) {
        auto stf = std::make_shared<seismo::BrunePulse>(0.1, 1e16);
        s.addPointSource(
            seismo::momentTensorSource({3000.0, 3000.0, -2000.0}, {0, 0, 0, 1.0, 0, 0}, stf));
      });
      requireReceiver(sim, {4800.0, 4200.0, -20.0}, name());
      if (runPrimary(sim, tEnd, opts, report))
        reportReceiver0(sim, tEnd, 201, opts, "loh1_seismogram.csv", report);
    });
    return report;
  }

 private:
  /// LOH.1 structure: 1 km sediment layer (vp 4000, vs 2000, rho 2600) over
  /// a stiff halfspace (vp 6000, vs 3464, rho 2700) — the same geometry as
  /// LOH.3 but purely elastic (Q = infinity, mechanisms = 0 ignores it).
  static seismo::LayeredModel model() {
    return seismo::LayeredModel({{-1000.0, {2600.0, 4000.0, 2000.0, 1e30, 1e30}},
                                 {-3000.0, {2700.0, 6000.0, 3464.0, 1e30, 1e30}}});
  }
};

// ---------------------------------------------------------------------------
// lahabra — production pipeline + distributed LTS run (paper Sec. VI)
// ---------------------------------------------------------------------------

class LaHabraScenario final : public BuiltinScenario<LaHabraScenario, false, 1> {
 public:
  /// Distributed by default: partition count when `--ranks` is unset (also
  /// the rank count the `--threads` default divides by).
  static constexpr int_t kDefaultRanks = 4;

  std::string name() const override { return "lahabra"; }
  /// lahabra has no receivers, so `--output` has nothing to write.
  std::vector<std::string> unreadFlags() const override {
    std::vector<std::string> flags = BuiltinScenario::unreadFlags();
    flags.push_back("--output");
    return flags;
  }
  std::string description() const override {
    return "La Habra-like basin through the full preprocessing pipeline, then "
           "a distributed run (any scheme, any listed f32 fused width); GTS and LTS "
           "ship face-local compressed data";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 3;
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 5;
    cfg.autoLambda = true;
    cfg.sparseKernels = fusedWidth(opts) > 1; // fused => all-sparse kernels
    applyScenarioOverrides(cfg, opts, kDefaultRanks); // distributed by default
    // GTS in the distributed driver is LTS with a single cluster.
    if (cfg.scheme == solver::TimeScheme::kGts) cfg.numClusters = 1;
    return checked(cfg, opts);
  }

  template <typename Real, int W>
  ScenarioReport runW(solver::SimConfig cfg, const ScenarioOptions& opts) const {
    const int_t nRanks = opts.ranks.value_or(kDefaultRanks);
    seismo::LaHabraLikeModel::Params params;
    params.zTop = 0.0;
    params.basinCenter = {8000.0, 8000.0};
    params.vsMin = 250.0; // the paper's reduced cutoff
    const seismo::LaHabraLikeModel model(params);

    pre::PipelineConfig pcfg;
    pcfg.lo = {0.0, 0.0, -6000.0};
    pcfg.hi = {16000.0, 16000.0, 0.0};
    pcfg.maxFrequency = 0.5 * opts.meshScale;
    pcfg.elementsPerWavelength = 2.0;
    pcfg.minEdge = 150.0 / opts.meshScale;
    ScenarioReport report;
    EngineInputs in = runScenarioPipeline(model, pcfg, cfg, nRanks, opts, report);
    appendKernelLine(report.summary, cfg);

    withEngine<Real, W>(std::move(in), cfg, nRanks, opts, parallel::Transport::kThread,
                        [&](auto& sim) {
      sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
        for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
        const double r2 = (x[0] - 8000.0) * (x[0] - 8000.0) +
                          (x[1] - 8000.0) * (x[1] - 8000.0) +
                          (x[2] + 3000.0) * (x[2] + 3000.0);
        q9[kVelW] = std::exp(-r2 / 1.2e6);
      });
      // Kinematic subfaults ride on top of the basin initial condition.
      addConfiguredSources(sim, opts, [](auto&) {});
      runPrimary(sim, opts.endTime.value_or(6.0 * sim.cycleDt()), opts, report);
    });
    return report;
  }
};

// ---------------------------------------------------------------------------
// fused — ensemble of forward simulations in one execution (paper Sec. IV-A)
// ---------------------------------------------------------------------------

class FusedScenario final : public BuiltinScenario<FusedScenario, false, 16> {
 public:
  std::string name() const override { return "fused"; }
  std::string description() const override {
    return "Fused ensemble: W differently-scaled sources advance in one "
           "solver execution; verifies lane linearity";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 3;
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 3;
    cfg.sparseKernels = true;
    cfg.attenuationFreq = 1.0;
    applyScenarioOverrides(cfg, opts);
    return checked(cfg, opts);
  }

  template <typename Real, int W>
  ScenarioReport runW(const solver::SimConfig& cfg, const ScenarioOptions& opts) const {
    const double tEnd = opts.endTime.value_or(3.0);
    // Ensemble of sources: one per lane, scaled 1..W (fault-file sources get
    // the same per-lane scaling, so lane linearity still holds).
    std::vector<double> scales(W);
    for (int w = 0; w < W; ++w) scales[w] = 1.0 + w;
    auto stf = std::make_shared<seismo::RickerWavelet>(1.0, 1.2, 1e9);

    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    progressf(opts, "fused x%d ensemble\n", W);
    bool root = true;
    withEngine<Real, W>(inputs(cfg, opts), cfg, opts.ranks.value_or(1), opts,
                        parallel::Transport::kSeq, [&](auto& sim) {
      addConfiguredSources(
          sim, opts,
          [&](auto& s) {
            s.addPointSource(
                seismo::momentTensorSource({1000.0, 1000.0, -800.0}, {0, 0, 0, 1, 0, 0}, stf),
                scales);
          },
          scales);
      requireReceiver(sim, {1600.0, 1500.0, -30.0}, name());
      root = runPrimary(sim, tEnd, opts, report);
      if (!root) return;

      // Verify lane linearity against lane 0.
      const idx_t samples = 300;
      std::vector<std::vector<double>> lanes(W);
      std::string header = "time";
      for (int w = 0; w < W; ++w) {
        lanes[w] = seismo::resample(sim.receiver(0).traces[w], kVelU, tEnd, samples);
        header += ",vx" + std::to_string(w);
      }
      report.trace = lanes[0];
      std::optional<double> worstMisfit = 0.0;
      for (int w = 1; w < W && worstMisfit; ++w) {
        std::vector<double> expect(report.trace.size());
        for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = scales[w] * report.trace[i];
        const std::optional<double> m = misfitIfDefined(lanes[w], expect);
        worstMisfit = m ? std::max(*worstMisfit, *m) : m;
      }
      if (W > 1)
        appendf(report.summary, "worst lane-linearity misfit: %s (must be ~fp32 round-off)\n",
                misfitText(worstMisfit).c_str());
      writeCsv(opts, "fused_seismograms.csv", tEnd, lanes, header, report);
    });

    // Compare against a single-rank, single-simulation run for the
    // per-simulation speedup.
    if (W > 1 && root) {
      solver::SimConfig singleCfg = cfg;
      singleCfg.sparseKernels = false;
      EngineInputs in = inputs(singleCfg, opts);
      solver::Simulation<Real, 1> single(std::move(in.mesh), std::move(in.materials), singleCfg);
      single.addPointSource(
          seismo::momentTensorSource({1000.0, 1000.0, -800.0}, {0, 0, 0, 1e9, 0, 0}, stf));
      progressf(opts, "running single-simulation reference...\n");
      const auto stSingle = single.run(tEnd);
      appendf(report.summary,
              "single run: %.2f s wall => fused per-simulation speedup %.2fx (paper: ~1.8-2.1x)\n",
              stSingle.seconds,
              W * stSingle.seconds / report.stats.seconds /
                  (stSingle.simulatedTime / report.stats.simulatedTime));
    }
    return report;
  }

 private:
  static EngineInputs inputs(const solver::SimConfig& cfg, const ScenarioOptions& opts) {
    EngineInputs in;
    in.mesh = resolveMesh(opts, [&] {
      mesh::BoxSpec spec;
      const idx_t cells = scaledCells(8, opts.meshScale);
      spec.planes[0] = mesh::uniformPlanes(0.0, 2000.0, cells);
      spec.planes[1] = mesh::uniformPlanes(0.0, 2000.0, cells);
      spec.planes[2] = mesh::uniformPlanes(-2000.0, 0.0, cells);
      spec.jitter = 0.18;
      spec.freeSurfaceTop = true;
      return mesh::generateBox(spec);
    });
    in.materials.resize(in.mesh.numElements());
    for (idx_t e = 0; e < in.mesh.numElements(); ++e) {
      const double vs = in.mesh.centroid(e)[2] > -500.0 ? 800.0 : 2400.0;
      in.materials[e] = physics::viscoElasticMaterial(2600.0, vs * 1.8, vs, 100.0, 50.0,
                                                      cfg.mechanisms, cfg.attenuationFreq);
    }
    return in;
  }
};

} // namespace

void applyScenarioOverrides(solver::SimConfig& cfg, const ScenarioOptions& opts,
                            int_t defaultRanks) {
  if (opts.order) cfg.order = *opts.order;
  if (opts.scheme) cfg.scheme = *opts.scheme;
  if (opts.numClusters) cfg.numClusters = *opts.numClusters;
  if (opts.precision) cfg.precision = *opts.precision;
  if (opts.lambda) {
    cfg.lambda = *opts.lambda;
    cfg.autoLambda = false;
  }
  if (opts.endTime && !(*opts.endTime > 0.0))
    throw std::invalid_argument("end time must be > 0");
  if (!(opts.meshScale > 0.0))
    throw std::invalid_argument("mesh scale must be > 0");
  if (opts.ranks && *opts.ranks < 1)
    throw std::invalid_argument("ranks must be >= 1");
  // Executor threads per rank: explicit --threads wins; the default splits
  // the hardware threads evenly among the ranks (hybrid --ranks x --threads
  // runs). Results are bitwise-identical for every valid value.
  const int_t nRanks = std::max<int_t>(1, opts.ranks.value_or(defaultRanks));
  cfg.numThreads = opts.threads.value_or(
      std::max<int_t>(1, solver::hardwareThreads() / nRanks));
  if (cfg.numThreads < 1)
    throw std::invalid_argument("threads must be >= 1, got " +
                                std::to_string(cfg.numThreads) +
                                " (--threads 0 is not a serial run; use --threads 1)");
  // Order, cluster count, lambda, ...: the engine's own ranges, checked
  // here so a bad value fails before any meshing.
  solver::validateSimConfig(cfg);
}

const std::vector<const Scenario*>& scenarios() {
  static const QuickstartScenario quickstart{};
  static const Loh1Scenario loh1{};
  static const Loh3Scenario loh3{};
  static const LaHabraScenario lahabra{};
  static const FusedScenario fused{};
  static const std::unique_ptr<Scenario> batch = makeBatchScenario();
  static const std::vector<const Scenario*> all = {batch.get(), &fused, &lahabra,
                                                   &loh1,       &loh3,  &quickstart};
  return all;
}

} // namespace nglts::cli
