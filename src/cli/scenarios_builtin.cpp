// Built-in scenarios of the `nglts` driver, refactored out of the former
// standalone example mains. Each scenario owns its canonical defaults
// (mesh, materials, sources, receivers) and applies `ScenarioOptions`
// overrides on top; the examples/ binaries are now thin wrappers that run
// these registry entries with default options.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

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
#include "pre/pipeline_cache.hpp"
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

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void progressf(const ScenarioOptions& opts, const char* fmt, ...) {
  if (opts.quiet) return;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::fputs(buf, stdout);
  std::fflush(stdout);
}

/// Local alias for `applyScenarioOverrides` (defined at the bottom of this
/// file, shared with scenario_batch.cpp); fusedWidth is checked per
/// scenario by resolveWidth. `defaultRanks` is the scenario's rank count
/// when `--ranks` is unset (1 for the shared-memory scenarios, lahabra
/// passes its distributed default) — it only feeds the `--threads` default.
void applyOverrides(solver::SimConfig& cfg, const ScenarioOptions& opts,
                    int_t defaultRanks = 1) {
  applyScenarioOverrides(cfg, opts, defaultRanks);
}


/// Record the small-GEMM backend the run's kernels dispatch to, the
/// arithmetic precision and the solver threads' subnormal mode in the
/// scenario summary ("kernel backend: vector(avx2)" / "precision: f64" /
/// "denormals: flush-to-zero"); CI greps these lines to assert an explicit
/// --kernel vector/specialized never silently degrades, that --precision f32
/// actually took effect, and that f32 runs compute with subnormals flushed.
void appendKernelLine(std::string& out, const solver::SimConfig& cfg) {
  appendf(out, "kernel backend: %s\n",
          linalg::resolvedKernelBackendLabel(cfg.kernelBackend).c_str());
  appendf(out, "precision: %s\n", solver::precisionName(cfg.precision));
  appendf(out, "denormals: %s\n", kFlushDenormals ? "flush-to-zero" : "ieee");
  // Non-default scheduling knobs are worth a summary line (CI greps them to
  // confirm the flag reached the engine); the defaults stay silent so
  // existing summary expectations hold.
  if (cfg.executorMode != solver::ExecutorMode::kStatic)
    appendf(out, "executor: %s\n", solver::executorModeName(cfg.executorMode));
  if (cfg.partitionWeighting != partition::PartitionWeighting::kWeighted)
    appendf(out, "partition: %s\n", partition::partitionWeightingName(cfg.partitionWeighting));
}

/// Resolve the configured clustering (auto-lambda sweep pinned to a fixed
/// value in `cfg`), cut the weighted dual graph into `nRanks` parts and
/// build the distributed engine over it. The transport comes from
/// `--transport` (falling back to `defaultTransport`) and `--overlap`
/// selects the overlapped exchange — results are bitwise-identical to the
/// shared-memory solver in every combination.
template <typename Real, int W>
parallel::DistributedSimulation<Real, W> makeDistributed(
    mesh::TetMesh mesh, std::vector<physics::Material> mats, solver::SimConfig& cfg,
    int_t nRanks, const ScenarioOptions& opts,
    parallel::Transport defaultTransport = parallel::Transport::kSeq, bool compress = true) {
  // Resolve the clustering once for the partition weights and pin its
  // lambda into cfg — the driver's internal re-resolution (geometry + CFL +
  // buildClustering, cheap O(n)) then reproduces it without re-running the
  // expensive auto-lambda sweep.
  const auto geo = mesh::computeGeometry(mesh);
  const auto dtCfl = lts::cflTimeSteps(geo, mats, cfg.order, cfg.cfl);
  const auto clustering = solver::resolveClustering(mesh, dtCfl, cfg);
  cfg.lambda = clustering.lambda;
  cfg.autoLambda = false;
  const auto graph = partition::buildPartitionGraph(mesh, clustering, cfg.partitionWeighting);
  auto parts = partition::partitionGraph(graph, mesh, nRanks);
  parallel::DistConfig dcfg;
  dcfg.sim = cfg;
  dcfg.compressFaces = compress;
  dcfg.transport = opts.transport.value_or(defaultTransport);
  dcfg.overlap = opts.overlap;
  return parallel::DistributedSimulation<Real, W>(std::move(mesh), std::move(mats),
                                                  std::move(parts.part), dcfg);
}

solver::PerfStats toPerfStats(const parallel::DistStats& st) {
  solver::PerfStats p;
  p.seconds = st.seconds;
  p.simulatedTime = st.simulatedTime;
  p.cycles = st.cycles;
  p.elementUpdates = st.elementUpdates;
  p.flops = st.flops;
  return p;
}

void appendDistLine(std::string& out, const parallel::DistStats& st, int_t ranks,
                    bool compressed, parallel::Transport transport, bool overlap) {
  appendf(out,
          "distributed run: %lld ranks, %s transport, %s exchange, %.2f MB in %llu "
          "messages (%s), %.3g element updates/s\n",
          static_cast<long long>(ranks), parallel::transportName(transport).c_str(),
          overlap ? "overlapped" : "lockstep", st.commBytes / 1e6,
          static_cast<unsigned long long>(st.messages),
          compressed ? "9xF face-local compression" : "raw 9xB buffers",
          st.seconds > 0 ? static_cast<double>(st.elementUpdates) / st.seconds : 0.0);
}

int_t resolveWidth(const ScenarioOptions& opts, int_t fallback,
                   std::initializer_list<int_t> valid, const char* scenario) {
  const int_t w = opts.fusedWidth.value_or(fallback);
  if (std::find(valid.begin(), valid.end(), w) == valid.end()) {
    std::string msg = "scenario '";
    msg += scenario;
    msg += "' supports fused widths";
    for (int_t v : valid) {
      msg += ' ';
      msg += std::to_string(v);
    }
    msg += ", got ";
    msg += std::to_string(w);
    throw std::invalid_argument(msg);
  }
  return w;
}

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

std::string perfLine(const solver::PerfStats& st) {
  std::string s;
  appendf(s, "%llu cycles (%.3f simulated s) in %.2f s wall — %.3g element updates/s, %.1f GFLOPS",
          static_cast<unsigned long long>(st.cycles), st.simulatedTime, st.seconds,
          st.elementUpdatesPerSecond(), st.gflops());
  return s;
}

void writeTraceCsv(const std::string& path, const std::vector<double>& times,
                   const std::vector<std::vector<double>>& columns,
                   const std::string& header) {
  std::ofstream csv(path);
  csv.precision(17); // round-trip exact doubles (golden-fixture comparisons)
  csv << header << '\n';
  for (std::size_t i = 0; i < times.size(); ++i) {
    csv << times[i];
    for (const auto& col : columns) csv << ',' << col[i];
    csv << '\n';
  }
  csv.flush();
  if (!csv) throw std::runtime_error("failed to write " + path);
}

std::vector<double> uniformTimes(double tEnd, idx_t samples) {
  std::vector<double> t(samples);
  for (idx_t i = 0; i < samples; ++i) t[i] = tEnd * i / (samples - 1);
  return t;
}

// ---------------------------------------------------------------------------
// quickstart — 1 km^3 two-layer box (the minimal end-to-end workflow)
// ---------------------------------------------------------------------------

class QuickstartScenario final : public Scenario {
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
    applyOverrides(cfg, opts);
    resolveWidth(opts, 1, {1, 2}, "quickstart");
    return cfg;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    const bool f32 = resolveConfig(opts).precision == solver::Precision::kF32;
    switch (resolveWidth(opts, 1, {1, 2}, "quickstart")) {
      case 2: return f32 ? runW<float, 2>(opts) : runW<double, 2>(opts);
      default: return f32 ? runW<float, 1>(opts) : runW<double, 1>(opts);
    }
  }

 private:
  template <typename Sim>
  static void addSetup(Sim& sim, const ScenarioOptions& opts) {
    // A double-couple point source (or the --fault-file subfaults) and a
    // surface receiver.
    addConfiguredSources(sim, opts, [](auto& s) {
      auto stf = std::make_shared<seismo::RickerWavelet>(2.0, 0.6);
      s.addPointSource(
          seismo::momentTensorSource({500.0, 500.0, -400.0}, {0, 0, 0, 1e9, 0, 0}, stf));
    });
    if (sim.addReceiver({800.0, 750.0, -20.0}) < 0)
      throw std::runtime_error("quickstart receiver outside mesh");
  }

  template <typename Real, int W>
  ScenarioReport runW(const ScenarioOptions& opts) const {
    solver::SimConfig cfg = resolveConfig(opts);
    const double tEnd = opts.endTime.value_or(2.0);
    const int_t nRanks = opts.ranks.value_or(1);

    // A 1 km^3 box, ~100 m elements at scale 1, jittered, free surface on top.
    mesh::TetMesh mesh = resolveMesh(opts, [&] {
      mesh::BoxSpec spec;
      const idx_t cells = scaledCells(10, opts.meshScale);
      spec.planes[0] = mesh::uniformPlanes(0.0, 1000.0, cells);
      spec.planes[1] = mesh::uniformPlanes(0.0, 1000.0, cells);
      spec.planes[2] = mesh::uniformPlanes(-1000.0, 0.0, cells);
      spec.jitter = 0.2;
      spec.freeSurfaceTop = true;
      return mesh::generateBox(spec);
    });
    progressf(opts, "mesh: %lld tetrahedra\n", static_cast<long long>(mesh.numElements()));

    // A soft near-surface layer over stiffer rock (drives the clustering).
    std::vector<physics::Material> materials(mesh.numElements());
    for (idx_t e = 0; e < mesh.numElements(); ++e) {
      const double vs = mesh.centroid(e)[2] > -250.0 ? 500.0 : 2000.0;
      materials[e] = physics::viscoElasticMaterial(2600.0, vs * 1.9, vs, 100.0, 50.0,
                                                   cfg.mechanisms, cfg.attenuationFreq);
    }

    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    const idx_t samples = 101;
    bool root = true; // under MPI only rank 0 holds the gathered traces
    if (nRanks > 1) {
      // Distributed path: same engine under a halo decomposition — the
      // seismogram is bitwise-identical to the single-rank run.
      auto sim = makeDistributed<Real, W>(std::move(mesh), std::move(materials), cfg,
                                          nRanks, opts);
      report.config = cfg;
      addSetup(sim, opts);
      progressf(opts, "running distributed on %lld ranks...\n",
                static_cast<long long>(sim.ranks()));
      const auto st = sim.run(tEnd);
      sim.gatherReceivers();
      root = sim.localRank() <= 0;
      report.stats = toPerfStats(st);
      appendf(report.summary, "%s\n", perfLine(report.stats).c_str());
      appendDistLine(report.summary, st, sim.ranks(), /*compressed=*/true, sim.transport(),
                     opts.overlap);
      if (root)
        report.trace = seismo::resample(sim.receiver(0).traces[0], kVelU, tEnd, samples);
    } else {
      solver::Simulation<Real, W> sim(std::move(mesh), std::move(materials), cfg);
      report.config = sim.config();
      report.clusterHistogram = sim.clustering().clusterSize;
      appendf(report.summary, "clusters:");
      for (idx_t n : sim.clustering().clusterSize)
        appendf(report.summary, " %lld", static_cast<long long>(n));
      appendf(report.summary, "  (lambda %.2f, theoretical speedup %.2fx)\n",
              sim.clustering().lambda, sim.clustering().theoreticalSpeedup);
      addSetup(sim, opts);
      report.stats = sim.run(tEnd);
      appendf(report.summary, "%s\n", perfLine(report.stats).c_str());
      report.trace = seismo::resample(sim.receiver(0).traces[0], kVelU, tEnd, samples);
    }
    double peak = 0.0;
    for (double v : report.trace) peak = std::max(peak, std::fabs(v));
    appendf(report.summary, "receiver vx peak: %.4e m/s over %.2f s\n", peak, tEnd);

    if (!opts.outputPrefix.empty() && root) {
      const std::string path = opts.outputPrefix + "quickstart_seismogram.csv";
      writeTraceCsv(path, uniformTimes(tEnd, samples), {report.trace}, "time,vx");
      appendf(report.summary, "wrote %s\n", path.c_str());
    }
    return report;
  }
};

// ---------------------------------------------------------------------------
// loh3 — layer over halfspace with constant-Q attenuation (paper Sec. VII-B)
// ---------------------------------------------------------------------------

class Loh3Scenario final : public Scenario {
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
    applyOverrides(cfg, opts);
    cfg.autoLambda = !opts.lambda && cfg.scheme != solver::TimeScheme::kGts;
    resolveWidth(opts, 1, {1, 2}, "loh3");
    return cfg;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    const bool f32 = resolveConfig(opts).precision == solver::Precision::kF32;
    switch (resolveWidth(opts, 1, {1, 2}, "loh3")) {
      case 2: return f32 ? runW<float, 2>(opts) : runW<double, 2>(opts);
      default: return f32 ? runW<float, 1>(opts) : runW<double, 1>(opts);
    }
  }

 private:
  mesh::TetMesh makeMesh(const ScenarioOptions& opts) const {
    // Scaled-down LOH.3: 6 km x 6 km x 3 km domain, velocity-aware vertical
    // grading across the 1 km layer interface (unless --mesh-file overrides).
    return resolveMesh(opts, [&] {
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
  }

  template <typename Real, int W>
  solver::Simulation<Real, W> makeSim(const solver::SimConfig& cfg,
                                      const ScenarioOptions& opts) const {
    mesh::TetMesh mesh = makeMesh(opts);
    const seismo::Loh3Model model(0.0);
    auto materials = seismo::materialsForMesh(mesh, model, cfg.mechanisms, cfg.attenuationFreq);
    return solver::Simulation<Real, W>(std::move(mesh), std::move(materials), cfg);
  }

  template <typename Sim>
  static void addSetup(Sim& sim, const ScenarioOptions& opts) {
    // LOH-style source: M_xy double couple at 2 km depth, Brune moment rate
    // (or the --fault-file subfaults).
    addConfiguredSources(sim, opts, [](auto& s) {
      auto stf = std::make_shared<seismo::BrunePulse>(0.1, 1e16);
      s.addPointSource(
          seismo::momentTensorSource({3000.0, 3000.0, -2000.0}, {0, 0, 0, 1.0, 0, 0}, stf));
    });
    // The benchmark's "ninth receiver" direction, scaled into the domain.
    sim.addReceiver({4800.0, 4200.0, -20.0});
    sim.addReceiver({3900.0, 3600.0, -20.0});
  }

  template <typename Real, int W>
  ScenarioReport runW(const ScenarioOptions& opts) const {
    solver::SimConfig cfg = resolveConfig(opts);
    solver::SimConfig gtsCfg = cfg;
    gtsCfg.scheme = solver::TimeScheme::kGts;
    gtsCfg.autoLambda = false;
    const double tEnd = opts.endTime.value_or(2.0);
    const int_t nRanks = opts.ranks.value_or(1);

    auto gts = makeSim<Real, W>(gtsCfg, opts);
    addSetup(gts, opts);
    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    progressf(opts, "running GTS reference...\n");
    const auto sg = gts.run(tEnd);

    if (nRanks > 1) {
      mesh::TetMesh mesh = makeMesh(opts);
      const seismo::Loh3Model model(0.0);
      auto materials =
          seismo::materialsForMesh(mesh, model, cfg.mechanisms, cfg.attenuationFreq);
      auto primary =
          makeDistributed<Real, W>(std::move(mesh), std::move(materials), cfg, nRanks, opts);
      report.config = cfg;
      report.clusterHistogram = primary.clustering().clusterSize;
      appendf(report.summary,
              "mesh: %lld elements; %s lambda %.2f, theoretical speedup %.2fx\n",
              static_cast<long long>(gts.meshRef().numElements()),
              schemeName(cfg.scheme).c_str(), primary.clustering().lambda,
              primary.clustering().theoreticalSpeedup);
      addSetup(primary, opts);
      progressf(opts, "running distributed %s on %lld ranks...\n",
                schemeName(cfg.scheme).c_str(), static_cast<long long>(primary.ranks()));
      const auto st = primary.run(tEnd);
      primary.gatherReceivers();
      report.stats = toPerfStats(st);
      appendf(report.summary, "GTS: %.2f s wall;  %s: %.2f s wall  => measured speedup %.2fx\n",
              sg.seconds, schemeName(cfg.scheme).c_str(), report.stats.seconds,
              sg.seconds / report.stats.seconds);
      appendDistLine(report.summary, st, primary.ranks(), /*compressed=*/true,
                     primary.transport(), opts.overlap);
      // Under MPI only rank 0 holds the gathered traces.
      if (primary.localRank() <= 0) compareReceivers(opts, cfg, tEnd, gts, primary, report);
      return report;
    }

    auto primary = makeSim<Real, W>(cfg, opts);
    report.config = primary.config();
    report.clusterHistogram = primary.clustering().clusterSize;
    appendf(report.summary, "mesh: %lld elements; %s lambda %.2f, theoretical speedup %.2fx\n",
            static_cast<long long>(primary.meshRef().numElements()),
            schemeName(cfg.scheme).c_str(), primary.clustering().lambda,
            primary.clustering().theoreticalSpeedup);
    addSetup(primary, opts);

    progressf(opts, "running %s...\n", schemeName(cfg.scheme).c_str());
    report.stats = primary.run(tEnd);
    appendf(report.summary, "GTS: %.2f s wall;  %s: %.2f s wall  => measured speedup %.2fx\n",
            sg.seconds, schemeName(cfg.scheme).c_str(), report.stats.seconds,
            sg.seconds / report.stats.seconds);
    compareReceivers(opts, cfg, tEnd, gts, primary, report);
    return report;
  }

  /// Per-receiver misfit vs the GTS reference plus the CSV artifact; works
  /// for both the shared-memory and the distributed primary simulation, at
  /// either precision (traces are resampled to double either way).
  template <typename Real, int W, typename PrimarySim>
  void compareReceivers(const ScenarioOptions& opts, const solver::SimConfig& cfg, double tEnd,
                        solver::Simulation<Real, W>& gts, PrimarySim& primary,
                        ScenarioReport& report) const {
    const idx_t samples = 400;
    std::vector<std::vector<double>> columns;
    for (idx_t r = 0; r < gts.numReceivers(); ++r) {
      const auto a = seismo::resample(gts.receiver(r).traces[0], kVelU, tEnd, samples);
      const auto b = seismo::resample(primary.receiver(r).traces[0], kVelU, tEnd, samples);
      appendf(report.summary, "receiver %lld: misfit E (%s vs GTS) = %.3e, peak %.3e m/s\n",
              static_cast<long long>(r), schemeName(cfg.scheme).c_str(),
              seismo::energyMisfit(b, a), seismo::peakAmplitude(a));
      if (r == 0) report.trace = b;
      columns.push_back(a);
      columns.push_back(b);
    }
    if (!opts.outputPrefix.empty()) {
      const std::string path = opts.outputPrefix + "loh3_seismograms.csv";
      std::string header = "time";
      for (idx_t r = 0; r < gts.numReceivers(); ++r) {
        appendf(header, ",r%lld_vx_gts,r%lld_vx_%s", static_cast<long long>(r),
                static_cast<long long>(r), schemeName(cfg.scheme).c_str());
      }
      writeTraceCsv(path, uniformTimes(tEnd, samples), columns, header);
      appendf(report.summary, "wrote %s\n", path.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// loh1 — SCEC LOH.1 elastic layer over halfspace through the pipeline
// ---------------------------------------------------------------------------

class Loh1Scenario final : public Scenario {
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
    applyOverrides(cfg, opts);
    cfg.autoLambda = !opts.lambda && cfg.scheme != solver::TimeScheme::kGts;
    resolveWidth(opts, 1, {1, 2}, "loh1");
    return cfg;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    const bool f32 = resolveConfig(opts).precision == solver::Precision::kF32;
    switch (resolveWidth(opts, 1, {1, 2}, "loh1")) {
      case 2: return f32 ? runW<float, 2>(opts) : runW<double, 2>(opts);
      default: return f32 ? runW<float, 1>(opts) : runW<double, 1>(opts);
    }
  }

 private:
  /// LOH.1 structure: 1 km sediment layer (vp 4000, vs 2000, rho 2600) over
  /// a stiff halfspace (vp 6000, vs 3464, rho 2700) — the same geometry as
  /// LOH.3 but purely elastic (Q = infinity, mechanisms = 0 ignores it).
  static seismo::LayeredModel model() {
    return seismo::LayeredModel({{-1000.0, {2600.0, 4000.0, 2000.0, 1e30, 1e30}},
                                 {-3000.0, {2700.0, 6000.0, 3464.0, 1e30, 1e30}}});
  }

  template <typename Sim>
  static void addSources(Sim& sim, const ScenarioOptions& opts) {
    // The benchmark's point double couple at 2 km depth (or --fault-file).
    addConfiguredSources(sim, opts, [](auto& s) {
      auto stf = std::make_shared<seismo::BrunePulse>(0.1, 1e16);
      s.addPointSource(
          seismo::momentTensorSource({3000.0, 3000.0, -2000.0}, {0, 0, 0, 1.0, 0, 0}, stf));
    });
  }

  template <typename Real, int W>
  ScenarioReport runW(const ScenarioOptions& opts) const {
    solver::SimConfig cfg = resolveConfig(opts);
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
    pcfg.order = cfg.order;
    pcfg.mechanisms = cfg.mechanisms;
    pcfg.cfl = cfg.cfl;
    pcfg.numClusters = cfg.numClusters;
    pcfg.autoLambda = cfg.autoLambda;
    pcfg.lambda = cfg.lambda;
    pcfg.numPartitions = nRanks;
    pcfg.partitionWeighting = cfg.partitionWeighting;
    applyIngestionOverrides(pcfg, opts);

    progressf(opts, "running preprocessing pipeline...\n");
    pre::PipelineResult pipe = pre::runPipeline(model(), pcfg);
    if (!opts.writeMesh.empty()) mesh::writeGmshFile(pipe.mesh, opts.writeMesh);

    ScenarioReport report;
    report.summary += pipe.summary();
    report.summary += '\n';
    appendKernelLine(report.summary, cfg);
    report.clusterHistogram = pipe.clustering.clusterSize;
    // Pin the swept lambda so the solver's internal re-resolution reproduces
    // the pipeline clustering without re-running the sweep.
    cfg.lambda = pipe.clustering.lambda;
    cfg.autoLambda = false;

    const std::array<double, 3> receiver = {4800.0, 4200.0, -20.0};
    const idx_t samples = 201;
    bool root = true;
    if (nRanks > 1) {
      parallel::DistConfig dcfg;
      dcfg.sim = cfg;
      dcfg.compressFaces = true;
      dcfg.transport = opts.transport.value_or(parallel::Transport::kSeq);
      dcfg.overlap = opts.overlap;
      parallel::DistributedSimulation<Real, W> sim(pipe.mesh, pipe.materials, pipe.parts.part,
                                                   dcfg);
      report.config = cfg;
      addSources(sim, opts);
      sim.addReceiver(receiver);
      progressf(opts, "running distributed %s on %lld ranks...\n",
                schemeName(cfg.scheme).c_str(), static_cast<long long>(sim.ranks()));
      const auto st = sim.run(tEnd);
      sim.gatherReceivers();
      root = sim.localRank() <= 0;
      report.stats = toPerfStats(st);
      appendf(report.summary, "%s\n", perfLine(report.stats).c_str());
      appendDistLine(report.summary, st, sim.ranks(), /*compressed=*/true, sim.transport(),
                     opts.overlap);
      if (root)
        report.trace = seismo::resample(sim.receiver(0).traces[0], kVelU, tEnd, samples);
    } else {
      solver::Simulation<Real, W> sim(pipe.mesh, pipe.materials, cfg);
      report.config = sim.config();
      addSources(sim, opts);
      if (sim.addReceiver(receiver) < 0)
        throw std::runtime_error("loh1 receiver outside mesh");
      progressf(opts, "running %s...\n", schemeName(cfg.scheme).c_str());
      report.stats = sim.run(tEnd);
      appendf(report.summary, "%s\n", perfLine(report.stats).c_str());
      report.trace = seismo::resample(sim.receiver(0).traces[0], kVelU, tEnd, samples);
    }
    double peak = 0.0;
    for (double v : report.trace) peak = std::max(peak, std::fabs(v));
    appendf(report.summary, "receiver vx peak: %.4e m/s over %.2f s\n", peak, tEnd);

    if (!opts.outputPrefix.empty() && root) {
      const std::string path = opts.outputPrefix + "loh1_seismogram.csv";
      writeTraceCsv(path, uniformTimes(tEnd, samples), {report.trace}, "time,vx");
      appendf(report.summary, "wrote %s\n", path.c_str());
    }
    return report;
  }
};

// ---------------------------------------------------------------------------
// lahabra — production pipeline + distributed LTS run (paper Sec. VI)
// ---------------------------------------------------------------------------

class LaHabraScenario final : public Scenario {
 public:
  /// Distributed by default: partition count when `--ranks` is unset (also
  /// the rank count the `--threads` default divides by).
  static constexpr int_t kDefaultRanks = 4;

  std::string name() const override { return "lahabra"; }
  std::string description() const override {
    return "La Habra-like basin through the full preprocessing pipeline, then "
           "a distributed run (any scheme, fused widths 1|8|16) with "
           "face-local compression";
  }

  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.mechanisms = 3;
    cfg.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 5;
    cfg.autoLambda = true;
    cfg.sparseKernels = opts.fusedWidth.value_or(1) > 1; // fused => all-sparse kernels
    applyOverrides(cfg, opts, kDefaultRanks); // distributed by default
    if (opts.precision && *opts.precision != solver::Precision::kF32)
      throw std::invalid_argument(
          "scenario 'lahabra' runs single-precision only (drop --precision or pass f32)");
    cfg.precision = solver::Precision::kF32;
    resolveWidth(opts, 1, {1, 8, 16}, "lahabra");
    // GTS in the distributed driver is LTS with a single cluster.
    if (cfg.scheme == solver::TimeScheme::kGts) cfg.numClusters = 1;
    return cfg;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    switch (resolveWidth(opts, 1, {1, 8, 16}, "lahabra")) {
      case 8: return runW<8>(opts);
      case 16: return runW<16>(opts);
      default: return runW<1>(opts);
    }
  }

 private:
  template <int W>
  ScenarioReport runW(const ScenarioOptions& opts) const {
    const solver::SimConfig cfg = resolveConfig(opts);

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
    pcfg.order = cfg.order;
    pcfg.mechanisms = cfg.mechanisms;
    pcfg.cfl = cfg.cfl;
    pcfg.numClusters = cfg.numClusters;
    pcfg.autoLambda = cfg.autoLambda && cfg.scheme != solver::TimeScheme::kGts;
    pcfg.lambda = cfg.lambda;
    pcfg.numPartitions = opts.ranks.value_or(kDefaultRanks);
    pcfg.partitionWeighting = cfg.partitionWeighting;
    applyIngestionOverrides(pcfg, opts);

    progressf(opts, "running preprocessing pipeline...\n");
    pre::PipelineResult pipe = pre::runPipeline(model, pcfg);
    if (!opts.writeMesh.empty()) mesh::writeGmshFile(pipe.mesh, opts.writeMesh);
    ScenarioReport report;
    report.config = cfg;
    report.config.lambda = pipe.clustering.lambda;
    report.config.autoLambda = false;
    report.clusterHistogram = pipe.clustering.clusterSize;
    report.summary += pipe.summary();
    report.summary += '\n';
    appendKernelLine(report.summary, cfg);

    parallel::DistConfig dcfg;
    dcfg.sim = report.config;
    dcfg.compressFaces = true;
    dcfg.transport = opts.transport.value_or(parallel::Transport::kThread);
    dcfg.overlap = opts.overlap;
    parallel::DistributedSimulation<float, W> sim(pipe.mesh, pipe.materials, pipe.parts.part,
                                                  dcfg);
    sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
      for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
      const double r2 = (x[0] - 8000.0) * (x[0] - 8000.0) +
                        (x[1] - 8000.0) * (x[1] - 8000.0) +
                        (x[2] + 3000.0) * (x[2] + 3000.0);
      q9[kVelW] = std::exp(-r2 / 1.2e6);
    });
    // Kinematic subfaults ride on top of the basin initial condition.
    if (!opts.faultFile.empty()) {
      const seismo::FiniteFault fault = seismo::parseFaultFile(opts.faultFile);
      for (const seismo::PointSource& src : fault.pointSources()) sim.addPointSource(src);
    }
    progressf(opts, "running distributed %s x%d simulation on %d ranks...\n",
              schemeName(cfg.scheme).c_str(), W, sim.ranks());
    const double tEnd = opts.endTime.value_or(6.0 * sim.cycleDt());
    const auto st = sim.run(tEnd);
    report.stats = toPerfStats(st);
    appendf(report.summary,
            "distributed run: %d ranks, fused x%d, %llu cycles, %.2f s wall, "
            "%.3g element updates/s, %.1f GFLOPS\n",
            sim.ranks(), W, static_cast<unsigned long long>(st.cycles), st.seconds,
            static_cast<double>(st.elementUpdates) / st.seconds, report.stats.gflops());
    appendf(report.summary,
            "communication: %s transport, %s exchange, %.2f MB in %llu messages "
            "(face-local compression on)\n",
            parallel::transportName(sim.transport()).c_str(),
            opts.overlap ? "overlapped" : "lockstep", st.commBytes / 1e6,
            static_cast<unsigned long long>(st.messages));
    return report;
  }
};

// ---------------------------------------------------------------------------
// fused — ensemble of forward simulations in one execution (paper Sec. IV-A)
// ---------------------------------------------------------------------------

class FusedScenario final : public Scenario {
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
    applyOverrides(cfg, opts);
    if (opts.precision && *opts.precision != solver::Precision::kF32)
      throw std::invalid_argument(
          "scenario 'fused' runs single-precision only (drop --precision or pass f32)");
    cfg.precision = solver::Precision::kF32;
    resolveWidth(opts, 16, {1, 8, 16}, "fused");
    return cfg;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    switch (resolveWidth(opts, 16, {1, 8, 16}, "fused")) {
      case 1: return runW<1>(opts);
      case 8: return runW<8>(opts);
      default: return runW<16>(opts);
    }
  }

 private:
  static mesh::TetMesh makeBoxMesh(double meshScale) {
    mesh::BoxSpec spec;
    const idx_t cells = scaledCells(8, meshScale);
    spec.planes[0] = mesh::uniformPlanes(0.0, 2000.0, cells);
    spec.planes[1] = mesh::uniformPlanes(0.0, 2000.0, cells);
    spec.planes[2] = mesh::uniformPlanes(-2000.0, 0.0, cells);
    spec.jitter = 0.18;
    spec.freeSurfaceTop = true;
    return mesh::generateBox(spec);
  }

  template <int W>
  solver::Simulation<float, W> makeSim(const solver::SimConfig& cfg,
                                       const ScenarioOptions& opts) const {
    mesh::TetMesh mesh = resolveMesh(opts, [&] { return makeBoxMesh(opts.meshScale); });
    std::vector<physics::Material> mats(mesh.numElements());
    for (idx_t e = 0; e < mesh.numElements(); ++e) {
      const double vs = mesh.centroid(e)[2] > -500.0 ? 800.0 : 2400.0;
      mats[e] = physics::viscoElasticMaterial(2600.0, vs * 1.8, vs, 100.0, 50.0,
                                              cfg.mechanisms, cfg.attenuationFreq);
    }
    return solver::Simulation<float, W>(std::move(mesh), std::move(mats), cfg);
  }

  template <int W>
  ScenarioReport runW(const ScenarioOptions& opts) const {
    const solver::SimConfig cfg = resolveConfig(opts);
    const double tEnd = opts.endTime.value_or(3.0);
    auto sim = makeSim<W>(cfg, opts);

    // Ensemble of sources: one per lane, scaled 1..W (fault-file sources get
    // the same per-lane scaling, so lane linearity still holds).
    std::vector<double> scales(W);
    for (int w = 0; w < W; ++w) scales[w] = 1.0 + w;
    auto stf = std::make_shared<seismo::RickerWavelet>(1.0, 1.2, 1e9);
    addConfiguredSources(
        sim, opts,
        [&](auto& s) {
          s.addPointSource(
              seismo::momentTensorSource({1000.0, 1000.0, -800.0}, {0, 0, 0, 1, 0, 0}, stf),
              scales);
        },
        scales);
    const idx_t rec = sim.addReceiver({1600.0, 1500.0, -30.0});
    if (rec < 0) throw std::runtime_error("fused receiver outside mesh");

    progressf(opts, "running fused x%d ensemble...\n", W);
    ScenarioReport report;
    appendKernelLine(report.summary, cfg);
    report.config = sim.config();
    report.clusterHistogram = sim.clustering().clusterSize;
    report.stats = sim.run(tEnd);
    appendf(report.summary, "fused x%d run: %s\n", W, perfLine(report.stats).c_str());

    // Verify lane linearity against lane 0.
    const idx_t samples = 300;
    report.trace = seismo::resample(sim.receiver(rec).traces[0], kVelU, tEnd, samples);
    double worstMisfit = 0.0;
    for (int w = 1; w < W; ++w) {
      auto lane = seismo::resample(sim.receiver(rec).traces[w], kVelU, tEnd, samples);
      std::vector<double> expect(report.trace.size());
      for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = scales[w] * report.trace[i];
      worstMisfit = std::max(worstMisfit, seismo::energyMisfit(lane, expect));
    }
    if (W > 1)
      appendf(report.summary, "worst lane-linearity misfit: %.3e (must be ~fp32 round-off)\n",
              worstMisfit);

    // Compare against a single-simulation run for the per-simulation speedup.
    if (W > 1) {
      solver::SimConfig singleCfg = cfg;
      singleCfg.sparseKernels = false;
      auto single = makeSim<1>(singleCfg, opts);
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
};

} // namespace

void applyScenarioOverrides(solver::SimConfig& cfg, const ScenarioOptions& opts,
                            int_t defaultRanks) {
  if (opts.order) cfg.order = *opts.order;
  if (opts.scheme) cfg.scheme = *opts.scheme;
  if (opts.numClusters) cfg.numClusters = *opts.numClusters;
  if (opts.kernelBackend) cfg.kernelBackend = *opts.kernelBackend;
  // Resolve now so an explicit --kernel vector/specialized on an unsupported
  // build/host fails at config time (never a silent fallback mid-run).
  linalg::resolveKernelBackend(cfg.kernelBackend);
  if (opts.precision) cfg.precision = *opts.precision;
  if (opts.executor) cfg.executorMode = *opts.executor;
  if (opts.partition) cfg.partitionWeighting = *opts.partition;
  if (opts.lambda) {
    cfg.lambda = *opts.lambda;
    cfg.autoLambda = false;
  }
  if (cfg.order < 1 || cfg.order > 7)
    throw std::invalid_argument("order must be in 1..7");
  if (cfg.numClusters < 1)
    throw std::invalid_argument("clusters must be >= 1");
  if (cfg.lambda < 0.0)
    throw std::invalid_argument("lambda must be >= 0");
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
}

void applyIngestionOverrides(pre::PipelineConfig& cfg, const ScenarioOptions& opts) {
  if (!opts.meshFile.empty()) {
    cfg.meshFile = opts.meshFile;
    cfg.meshContentHash = pre::fileContentKey(opts.meshFile);
  }
  if (!opts.faultFile.empty()) {
    cfg.faultFile = opts.faultFile;
    cfg.faultContentHash = pre::fileContentKey(opts.faultFile);
  }
}

void registerBuiltinScenarios() {
  static const bool registered = [] {
    auto& reg = ScenarioRegistry::instance();
    reg.add(std::make_unique<QuickstartScenario>());
    reg.add(std::make_unique<Loh1Scenario>());
    reg.add(std::make_unique<Loh3Scenario>());
    reg.add(std::make_unique<LaHabraScenario>());
    reg.add(std::make_unique<FusedScenario>());
    reg.add(makeBatchScenario());
    return true;
  }();
  (void)registered;
}

} // namespace nglts::cli
