// The `batch` scenario: ensemble batch execution through the BatchEngine
// (batch/batch_engine.hpp). The base scenario is the quickstart's 1 km^3
// two-layer box run through the *production preprocessing pipeline*
// (velocity-aware mesh + clustering + partition); each request perturbs
// the source amplitude, the velocity model and/or the receiver position.
// Requests come from `--batch-manifest FILE` or are synthesized
// (`--batch-size N`, heterogeneous on purpose: every fourth request
// perturbs the materials so the plan exercises group splitting).
// `--checkpoint FILE --checkpoint-every N` snapshots the batch;
// `--restore` resumes it bitwise-identically.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "batch/batch_engine.hpp"
#include "batch/manifest.hpp"
#include "cli/scenario.hpp"
#include "seismo/receiver.hpp"

namespace nglts::cli {
namespace {

std::vector<batch::ScenarioRequest> synthesizeRequests(int_t n) {
  if (n < 1) throw std::invalid_argument("batch size must be >= 1");
  std::vector<batch::ScenarioRequest> reqs(static_cast<std::size_t>(n));
  for (int_t i = 0; i < n; ++i) {
    auto& r = reqs[static_cast<std::size_t>(i)];
    char id[32];
    std::snprintf(id, sizeof id, "req%02d", static_cast<int>(i));
    r.id = id;
    r.sourceScale = 1.0 + 0.25 * i;                    // fusable perturbation
    r.materialScale = (i % 4 == 3) ? 1.1 : 1.0;        // splits the fused group
    r.receiverOffset = {5.0 * i, 0.0, 0.0};            // shares the pipeline
  }
  return reqs;
}

class BatchScenario final : public Scenario {
 public:
  std::string name() const override { return "batch"; }
  std::string description() const override {
    return "ensemble batch of perturbed quickstart requests: memoized "
           "preprocessing, automatic lane packing, checkpoint/restart";
  }

  /// `--fused` is the lane-packing cap; it must be a width the engine-type
  /// table lists at the batch's precision.
  solver::SimConfig resolveConfig(const ScenarioOptions& opts) const override {
    batch::BatchConfig cfg = batch::quickstartBatchConfig();
    applyScenarioOverrides(cfg.sim, opts);
    solver::checkEngineType(cfg.sim.precision, opts.fusedWidth.value_or(cfg.maxFusedWidth));
    return cfg.sim;
  }

  ScenarioReport run(const ScenarioOptions& opts) const override {
    batch::BatchConfig cfg = batch::quickstartBatchConfig();
    cfg.sim = resolveConfig(opts);
    cfg.maxFusedWidth = opts.fusedWidth.value_or(cfg.maxFusedWidth);
    cfg.endTime = opts.endTime.value_or(cfg.endTime);
    // meshScale > 1 = finer: the edge-length bounds shrink accordingly.
    cfg.pipeline.minEdge /= opts.meshScale;
    cfg.pipeline.maxEdge /= opts.meshScale;
    // --mesh-file/--fault-file: every request runs on the external mesh
    // and/or kinematic source; the engine hashes their bytes into the
    // checkpoint fingerprint.
    cfg.pipeline.meshFile = opts.meshFile;
    cfg.faultFile = opts.faultFile;
    cfg.checkpointEveryCycles = opts.checkpointEvery;
    cfg.checkpointPath = opts.checkpointFile;
    cfg.restore = opts.restore;
    const double tEnd = cfg.endTime;

    const std::vector<batch::ScenarioRequest> requests =
        opts.batchManifest.empty() ? synthesizeRequests(opts.batchSize)
                                   : batch::parseManifestFile(opts.batchManifest);

    batch::BatchEngine engine(cfg);
    engine.add(requests);

    const auto& plan = engine.plan();
    progressf(opts, "batch: %lld requests packed into %zu fused runs\n",
              static_cast<long long>(engine.numRequests()), plan.size());

    ScenarioReport report;
    report.config = cfg.sim;
    const idx_t samples = 101;
    const batch::BatchStats stats = engine.run([&](const batch::RequestResult& res) {
      const std::vector<double> vx = seismo::resample(res.trace, kVelU, tEnd, samples);
      double peak = 0.0;
      for (double v : vx) peak = std::max(peak, std::fabs(v));
      progressf(opts, "  %-10s lane %d/%d  vx peak %.4e m/s\n", res.id.c_str(),
                static_cast<int>(res.lane), static_cast<int>(res.fusedWidth), peak);
      appendf(report.summary, "request %-10s width %d lane %d  vx peak %.4e m/s\n",
              res.id.c_str(), static_cast<int>(res.fusedWidth), static_cast<int>(res.lane),
              peak);
      if (report.trace.empty()) report.trace = vx;
      if (!opts.outputPrefix.empty())
        writeTraceCsv(opts.outputPrefix + "batch_" + res.id + ".csv", tEnd, {vx}, "time,vx");
    });

    report.stats.seconds = stats.setupSeconds + stats.solveSeconds;
    report.stats.simulatedTime = tEnd;
    report.stats.cycles = stats.cycles;
    report.stats.flops = stats.flops;
    report.operatorBytes = stats.operatorBytes;

    appendf(report.summary,
            "batch: %lld/%lld requests in %lld fused runs — pipeline built %lldx, "
            "reused %lldx\n",
            static_cast<long long>(stats.completedRequests),
            static_cast<long long>(stats.requests), static_cast<long long>(stats.runs),
            static_cast<long long>(stats.pipelineBuilds),
            static_cast<long long>(stats.pipelineHits));
    appendOperatorLine(report.summary, stats.operatorBytes);
    if (stats.completedRequests > 0)
      appendf(report.summary, "setup %.2f s (%.3f s/request amortized), solve %.2f s\n",
              stats.setupSeconds, stats.setupSeconds / stats.completedRequests,
              stats.solveSeconds);
    if (stats.interrupted)
      appendf(report.summary, "batch interrupted after checkpoint (resume with --restore)\n");
    return report;
  }
};

} // namespace

std::unique_ptr<Scenario> makeBatchScenario() { return std::make_unique<BatchScenario>(); }

} // namespace nglts::cli
