#include "batch/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "batch/checkpoint.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "pre/config_hash.hpp"
#include "seismo/fault.hpp"
#include "solver/setup.hpp"
#include "solver/simulation.hpp"

namespace nglts::batch {

namespace quickstart {

seismo::LayeredModel model() {
  return seismo::LayeredModel({{-250.0, {2600.0, 950.0, 500.0, 100.0, 50.0}},
                               {-1000.0, {2600.0, 3800.0, 2000.0, 100.0, 50.0}}});
}

seismo::PointSource source() {
  return seismo::momentTensorSource(
      kSourcePosition, kSourceMoment,
      std::make_shared<seismo::RickerWavelet>(kRickerFrequency, kRickerDelay));
}

} // namespace quickstart

BatchEngine::BatchEngine(BatchConfig cfg) : cfg_(std::move(cfg)) {
  solver::validateSimConfig(cfg_.sim);
  solver::checkEngineType(cfg_.sim.precision, cfg_.maxFusedWidth);
  if (!std::isfinite(cfg_.endTime) || !(cfg_.endTime > 0.0))
    throw std::invalid_argument("BatchConfig: endTime must be finite and > 0");
  if (cfg_.checkpointEveryCycles < 0)
    throw std::invalid_argument("BatchConfig: checkpointEveryCycles must be >= 0");
  if ((cfg_.checkpointEveryCycles > 0 || cfg_.restore) && cfg_.checkpointPath.empty())
    throw std::invalid_argument("BatchConfig: checkpointing/restore needs a checkpointPath");
  // One shared-memory process: the pipeline cuts a single partition.
  cfg_.pipeline = solver::pipelineConfigFor(std::move(cfg_.pipeline), cfg_.sim, 1);
  if (!cfg_.pipeline.meshFile.empty()) meshFileKey_ = pre::fileContentKey(cfg_.pipeline.meshFile);
  if (!cfg_.faultFile.empty()) faultFileKey_ = pre::fileContentKey(cfg_.faultFile);
}

void BatchEngine::add(ScenarioRequest req) {
  if (ran_) throw std::logic_error("BatchEngine: cannot add requests after run()");
  if (!std::isfinite(req.materialScale) || !(req.materialScale > 0.0))
    throw std::invalid_argument("batch request '" + req.id + "': material scale " +
                                std::to_string(req.materialScale) + " must be finite and > 0");
  requests_.push_back(std::move(req));
  planned_ = false;
}

void BatchEngine::add(const std::vector<ScenarioRequest>& reqs) {
  for (const ScenarioRequest& r : reqs) add(r);
}

const std::vector<BatchEngine::PlannedRun>& BatchEngine::plan() {
  if (planned_) return plan_;
  plan_.clear();

  // Group requests by material scale, stable in submission order.
  // Receivers are bound after preprocessing, so receiver-only perturbations
  // land in the same group.
  std::vector<std::pair<double, std::vector<idx_t>>> groups;
  for (idx_t i = 0; i < numRequests(); ++i) {
    const double key = requests_[i].materialScale;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) groups.push_back({key, {i}});
    else it->second.push_back(i);
  }

  // Greedy packing inside each group: the largest width the engine-type
  // table lists at the batch's precision that is <= min(maxFusedWidth,
  // remaining). Every run is exactly `width` lanes.
  const std::vector<int_t> widths = solver::fusedWidths(cfg_.sim.precision);
  for (const auto& [key, members] : groups) {
    std::size_t at = 0;
    while (at < members.size()) {
      const auto remaining = static_cast<int_t>(members.size() - at);
      const int_t cap = std::min(cfg_.maxFusedWidth, remaining);
      int_t width = 1; // listed at every precision
      for (int_t w : widths)
        if (w <= cap) width = w;
      PlannedRun run;
      run.materialScale = key;
      run.width = width;
      run.requests.assign(members.begin() + static_cast<std::ptrdiff_t>(at),
                          members.begin() + static_cast<std::ptrdiff_t>(at + width));
      plan_.push_back(std::move(run));
      at += static_cast<std::size_t>(width);
    }
  }
  planned_ = true;
  return plan_;
}

std::uint64_t BatchEngine::fingerprint() const {
  // Everything that shapes the batch schedule or its results — performance
  // knobs (threads, kernel backend, layout, checkpoint cadence) excluded:
  // they are bitwise-neutral, and a restore under a different thread count
  // or cadence must still be accepted. `sim.attenuationFreq` is excluded
  // too: the batch fits Q at `pipeline.maxFrequency`.
  pre::ConfigHasher h;
  h.i32(cfg_.sim.order);
  h.i32(cfg_.sim.mechanisms);
  h.f64(cfg_.sim.cfl);
  h.boolean(cfg_.sim.sparseKernels);
  h.i32(static_cast<int_t>(cfg_.sim.scheme));
  h.i32(cfg_.sim.numClusters);
  h.f64(cfg_.sim.lambda);
  h.boolean(cfg_.sim.autoLambda);
  h.f64(cfg_.sim.receiverSampleDt);
  h.i32(static_cast<int_t>(cfg_.sim.precision)); // changes every result bit
  h.u64(pre::pipelineConfigKey(cfg_.pipeline));
  h.u64(meshFileKey_);
  h.u64(faultFileKey_);
  // The quickstart problem: the layer table the materials come from, the
  // double couple (replaced by the fault file's subfaults when one is set)
  // and the receiver.
  const seismo::LayeredModel model = quickstart::model();
  h.u64(model.layers().size());
  for (const seismo::LayeredModel::Layer& l : model.layers()) {
    h.f64(l.zBottom);
    for (double v : {l.sample.rho, l.sample.vp, l.sample.vs, l.sample.qp, l.sample.qs}) h.f64(v);
  }
  for (double v : quickstart::kSourcePosition) h.f64(v);
  for (double v : quickstart::kSourceMoment) h.f64(v);
  h.f64(quickstart::kRickerFrequency);
  h.f64(quickstart::kRickerDelay);
  for (double v : quickstart::kReceiverPosition) h.f64(v);
  h.f64(cfg_.endTime);
  h.i32(cfg_.maxFusedWidth);
  h.u64(static_cast<std::uint64_t>(requests_.size()));
  for (const ScenarioRequest& r : requests_) {
    h.u64(r.id.size());
    h.bytes(r.id.data(), r.id.size());
    h.f64(r.sourceScale);
    h.f64(r.materialScale);
    for (double v : r.receiverOffset) h.f64(v);
  }
  return h.digest();
}

const pre::PipelineResult& BatchEngine::pipeline(double materialScale, BatchStats& stats) {
  if (auto it = pipelines_.find(materialScale); it != pipelines_.end()) {
    ++stats.pipelineHits;
    return it->second;
  }
  ++stats.pipelineBuilds;
  const seismo::LayeredModel base = quickstart::model();
  const ScaledVelocityModel scaled(base, materialScale);
  const pre::PipelineResult& built =
      pipelines_.emplace(materialScale, pre::runPipeline(scaled, cfg_.pipeline)).first->second;
  NGLTS_LOG_INFO << "batch: built the pipeline of material scale " << materialScale << " ("
                 << built.mesh.numElements() << " elements)";
  return built;
}

template <typename Real, int W>
bool BatchEngine::runPlanned(idx_t runIndex, std::uint64_t resumeCycles, bool loadState,
                             const ResultCallback& onResult, BatchStats& stats,
                             int_t& snapshotsWritten) {
  const PlannedRun& pr = plan_[static_cast<std::size_t>(runIndex)];

  Timer setup;
  const pre::PipelineResult& pipe = pipeline(pr.materialScale, stats);

  // Pin the pipeline's clustering decision into the run config (the lahabra
  // pattern): the engine re-derives the identical clusters from the
  // pipeline's mesh instead of sweeping lambda again.
  solver::SimConfig runCfg = cfg_.sim;
  runCfg.lambda = pipe.clustering.lambda;
  runCfg.autoLambda = false;

  solver::Simulation<Real, W> sim(pipe.mesh, pipe.materials, runCfg);
  const solver::OperatorBytes ob = sim.operatorBytes();
  if (ob.elastic + ob.anelastic > stats.operatorBytes.elastic + stats.operatorBytes.anelastic)
    stats.operatorBytes = ob;

  std::vector<double> laneScale(W);
  for (int lane = 0; lane < W; ++lane)
    laneScale[static_cast<std::size_t>(lane)] =
        requests_[pr.requests[static_cast<std::size_t>(lane)]].sourceScale;
  if (cfg_.faultFile.empty()) {
    sim.addPointSource(quickstart::source(), laneScale);
  } else {
    // Kinematic finite-fault override: every subfault is injected as a point
    // source; the per-request sourceScale still scales each lane linearly.
    // The file's bytes sit in the batch fingerprint, so an edited fault file
    // invalidates snapshots.
    const seismo::FiniteFault fault = seismo::parseFaultFile(cfg_.faultFile);
    for (const seismo::PointSource& src : fault.pointSources())
      sim.addPointSource(src, laneScale);
  }

  std::vector<idx_t> recIdx(W);
  for (int lane = 0; lane < W; ++lane) {
    const ScenarioRequest& req = requests_[pr.requests[static_cast<std::size_t>(lane)]];
    std::array<double, 3> pos{};
    for (int d = 0; d < 3; ++d)
      pos[d] = quickstart::kReceiverPosition[d] + req.receiverOffset[d];
    const idx_t idx = sim.addReceiver(pos);
    if (idx < 0)
      throw std::runtime_error("batch request '" + req.id + "': receiver lies outside the mesh");
    recIdx[static_cast<std::size_t>(lane)] = idx;
  }
  stats.setupSeconds += setup.seconds();

  const std::uint64_t totalCycles = sim.cyclesFor(cfg_.endTime);
  std::uint64_t done = 0;
  if (loadState) {
    loadSnapshot(cfg_.checkpointPath, sim);
    done = resumeCycles;
    NGLTS_LOG_INFO << "batch: restored run " << runIndex << " at cycle " << done << "/"
                   << totalCycles;
  }

  while (done < totalCycles) {
    const std::uint64_t chunk =
        cfg_.checkpointEveryCycles > 0
            ? std::min<std::uint64_t>(static_cast<std::uint64_t>(cfg_.checkpointEveryCycles),
                                      totalCycles - done)
            : totalCycles - done;
    const solver::PerfStats st = sim.runCycles(chunk);
    stats.solveSeconds += st.seconds;
    stats.cycles += st.cycles;
    stats.flops += st.flops;
    done += chunk;
    if (cfg_.checkpointEveryCycles > 0 && done < totalCycles) {
      saveSnapshot(cfg_.checkpointPath, fingerprint(), static_cast<std::uint64_t>(runIndex), done,
                   &sim);
      ++snapshotsWritten;
      if (cfg_.abortAfterCheckpoints > 0 && snapshotsWritten >= cfg_.abortAfterCheckpoints) {
        stats.interrupted = true;
        return false;
      }
    }
  }

  for (int lane = 0; lane < W; ++lane) {
    const idx_t reqIdx = pr.requests[static_cast<std::size_t>(lane)];
    RequestResult res;
    res.id = requests_[reqIdx].id;
    res.requestIndex = reqIdx;
    res.trace = sim.receiver(recIdx[static_cast<std::size_t>(lane)])
                    .traces[static_cast<std::size_t>(lane)];
    res.lane = lane;
    res.fusedWidth = W;
    res.materialScale = pr.materialScale;
    ++stats.completedRequests;
    if (onResult) onResult(res);
  }
  ++stats.runs;

  // A run-boundary marker lets a kill between runs resume at the next run
  // without replaying this one (its results were already streamed).
  if (cfg_.checkpointEveryCycles > 0) {
    saveSnapshot<Real, W>(cfg_.checkpointPath, fingerprint(),
                          static_cast<std::uint64_t>(runIndex) + 1, 0, nullptr);
    ++snapshotsWritten;
    if (cfg_.abortAfterCheckpoints > 0 && snapshotsWritten >= cfg_.abortAfterCheckpoints) {
      stats.interrupted = true;
      return false;
    }
  }
  return true;
}

BatchStats BatchEngine::run(const ResultCallback& onResult) {
  if (ran_) throw std::logic_error("BatchEngine: run() may be called once");
  ran_ = true;
  plan();

  BatchStats stats;
  stats.requests = numRequests();

  idx_t startRun = 0;
  std::uint64_t resumeCycles = 0;
  bool loadState = false;
  if (cfg_.restore) {
    const SnapshotInfo info = peekSnapshot(cfg_.checkpointPath);
    // Run-boundary markers never reach loadSnapshot, so the precision is
    // checked here as well.
    checkSnapshotPrecision(cfg_.checkpointPath, info, cfg_.sim.precision);
    if (info.batchFingerprint != fingerprint())
      throw std::runtime_error("snapshot '" + cfg_.checkpointPath +
                               "' belongs to a different batch (fingerprint mismatch)");
    startRun = static_cast<idx_t>(info.runIndex);
    if (info.hasState) {
      resumeCycles = info.cyclesDone;
      loadState = true;
    }
    NGLTS_LOG_INFO << "batch: resuming at run " << startRun << " of " << plan_.size();
  }

  int_t snapshotsWritten = 0;
  for (idx_t r = startRun; r < static_cast<idx_t>(plan_.size()); ++r) {
    const bool resume = loadState && r == startRun;
    const std::uint64_t cycles = resume ? resumeCycles : 0;
    const bool cont = solver::dispatchEngineType(
        cfg_.sim.precision, plan_[static_cast<std::size_t>(r)].width,
        [&]<typename Real, int W>() {
          return runPlanned<Real, W>(r, cycles, resume, onResult, stats, snapshotsWritten);
        });
    if (!cont) break;
  }

  return stats;
}

BatchConfig quickstartBatchConfig() {
  BatchConfig cfg;
  cfg.sim.order = 4;
  cfg.sim.mechanisms = 3;
  cfg.sim.scheme = solver::TimeScheme::kLtsNextGen;
  cfg.sim.numClusters = 3;
  cfg.sim.autoLambda = true;
  cfg.sim.attenuationFreq = 2.0;
  cfg.pipeline.lo = {0.0, 0.0, -1000.0};
  cfg.pipeline.hi = {1000.0, 1000.0, 0.0};
  cfg.pipeline.maxFrequency = 2.0; // also the constant-Q fit band's center
  cfg.pipeline.elementsPerWavelength = 2.0;
  cfg.pipeline.minEdge = 100.0;
  cfg.pipeline.maxEdge = 350.0;
  cfg.pipeline.jitter = 0.2;
  cfg.endTime = 1.0;
  return cfg;
}

} // namespace nglts::batch
