#pragma once
// The ensemble batch engine (ROADMAP item: ensemble-as-a-service on the
// layered core). Accepts a queue of `ScenarioRequest`s — one base scenario
// plus per-request source / material / receiver perturbations — and:
//
//  * memoizes the expensive preprocessing products behind a content-hash of
//    the cache-relevant config subset (`pre::PipelineCache`): requests that
//    differ only in fusable or cache-neutral perturbations reuse one cached
//    `PipelineResult` instead of re-running mesh/clustering/partitioning;
//  * packs compatible requests into fused-simulation lanes automatically
//    (greedy, submission order, the engine-type table's widths at the
//    batch's precision capped by `maxFusedWidth`, see common/types.hpp):
//    requests are *compatible* when they share a pipeline key — source
//    scales ride in `laneScale`, receiver offsets are passive — while
//    material perturbations change the operators and must split;
//  * streams results back incrementally: the per-request seismogram is
//    handed to the caller's callback as soon as its fused run completes,
//    not when the whole batch drains;
//  * checkpoints at `checkpointEveryCycles` cycle boundaries into versioned
//    binary snapshots (batch/checkpoint.hpp) and restores bitwise-
//    identically with `restore = true`.
//
// Bitwise contract (the foundation of tests/test_batch_engine.cpp): per-lane
// arithmetic is independent and identically ordered for every W, so lane w
// of a fused run bitwise-equals an independent W = 1 run of the same
// request — a batch of N requests produces seismograms bitwise-identical to
// N independent runs while executing the preprocessing pipeline once per
// distinct (material, domain) configuration.
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "pre/pipeline_cache.hpp"
#include "seismo/receiver.hpp"
#include "seismo/velocity_model.hpp"
#include "solver/config.hpp"

namespace nglts::batch {

/// One ensemble member: the base scenario perturbed per request.
struct ScenarioRequest {
  std::string id;                   ///< caller's label, reported back
  /// Source amplitude factor — fusable (rides in the solver's `laneScale`).
  double sourceScale = 1.0;
  /// Velocity perturbation factor on vp/vs — cache-relevant (changes
  /// materials, CFL steps and clustering), splits the fused group.
  double materialScale = 1.0;
  /// Offset added to the base receiver position — cache-neutral AND
  /// fusable: receivers are passive, each request records its own lane.
  std::array<double, 3> receiverOffset = {0.0, 0.0, 0.0};
};

/// Result streamed per completed request.
struct RequestResult {
  std::string id;
  idx_t requestIndex = -1;          ///< submission index
  seismo::Seismogram trace;         ///< this request's receiver, its lane
  int_t lane = 0;                   ///< lane inside the fused run
  int_t fusedWidth = 1;             ///< width of the run that produced it
  std::uint64_t pipelineKey = 0;    ///< memoization key the run used
};

struct BatchStats {
  idx_t requests = 0;
  idx_t completedRequests = 0;
  idx_t runs = 0;                   ///< fused solver runs executed
  idx_t pipelineBuilds = 0;         ///< times the preprocessing actually ran
  idx_t pipelineHits = 0;
  double setupSeconds = 0.0;        ///< preprocessing + solver construction
  double solveSeconds = 0.0;        ///< time loop
  std::uint64_t cycles = 0;
  std::uint64_t flops = 0;
  /// Operator memory of the largest fused run (the runs live one at a time).
  solver::OperatorBytes operatorBytes;
  bool interrupted = false;         ///< stopped by `abortAfterCheckpoints`
};

/// The base scenario every request perturbs.
struct BatchConfig {
  solver::SimConfig sim;            ///< discretization + scheme knobs
  /// Domain / meshing knobs. Discretization and clustering fields (order,
  /// mechanisms, cfl, numClusters, lambda, autoLambda) are mirrored from
  /// `sim` by the engine so the two cannot drift apart; receivers are
  /// threaded per-request by the engine.
  pre::PipelineConfig pipeline;
  double endTime = 1.0;
  std::array<double, 3> sourcePosition = {500.0, 500.0, -400.0};
  std::array<double, 6> sourceMoment = {0.0, 0.0, 0.0, 1e9, 0.0, 0.0};
  double sourceFrequency = 2.0;     ///< Ricker central frequency [Hz]
  double sourceDelay = 0.6;
  std::array<double, 3> receiverPosition = {800.0, 750.0, -20.0};
  /// Lane-packing cap: a fused width the engine-type table lists at
  /// `sim.precision` (common/types.hpp).
  int_t maxFusedWidth = 4;
  /// Checkpoint cadence in LTS cycles; 0 disables checkpointing.
  idx_t checkpointEveryCycles = 0;
  std::string checkpointPath;       ///< snapshot file (required if above > 0)
  bool restore = false;             ///< resume from `checkpointPath`
  /// Test/ops hook: stop the batch right after writing this many snapshots
  /// (simulates a kill; 0 = never). The restored run must be bitwise-
  /// identical to an uninterrupted one.
  int_t abortAfterCheckpoints = 0;
};

/// Wraps a velocity model, scaling vp and vs by a factor (density and Q
/// unchanged) — the batch engine's material perturbation.
class ScaledVelocityModel final : public seismo::VelocityModel {
 public:
  ScaledVelocityModel(const seismo::VelocityModel& base, double scale)
      : base_(base), scale_(scale) {}
  seismo::MaterialSample at(const std::array<double, 3>& x) const override {
    seismo::MaterialSample s = base_.at(x);
    s.vp *= scale_;
    s.vs *= scale_;
    return s;
  }

 private:
  const seismo::VelocityModel& base_;
  double scale_;
};

class BatchEngine {
 public:
  using ResultCallback = std::function<void(const RequestResult&)>;

  /// A fused solver run the planner scheduled: `requests.size()` lanes of
  /// width `width` sharing the pipeline product under `pipelineKey`.
  struct PlannedRun {
    std::uint64_t pipelineKey = 0;
    int_t width = 1;
    std::vector<idx_t> requests;    ///< submission indices, lane order
  };

  /// `model` is the base velocity model; it must outlive the engine.
  /// `modelKey` is the caller's content-hash of the model parameters
  /// (combined with each request's materialScale into the pipeline key).
  /// Throws `std::invalid_argument` on invalid `sim` or `maxFusedWidth`.
  BatchEngine(const seismo::VelocityModel& model, BatchConfig cfg, std::uint64_t modelKey = 0);

  void add(ScenarioRequest req);
  void add(const std::vector<ScenarioRequest>& reqs);
  idx_t numRequests() const { return static_cast<idx_t>(requests_.size()); }

  /// Group compatible requests and pack them into fused runs (stable in
  /// submission order). Idempotent; `run()` calls it implicitly.
  const std::vector<PlannedRun>& plan();

  /// Execute the batch, streaming each request's result through `onResult`
  /// as its run completes. Throws `std::runtime_error` on checkpoint
  /// errors, fingerprint mismatches on restore, or receivers outside the
  /// mesh. Safe to call once per engine.
  BatchStats run(const ResultCallback& onResult);

  /// Content-hash of the batch definition (base config + request list);
  /// snapshots carry it so a restore against a different batch fails
  /// loudly instead of resuming into the wrong schedule.
  std::uint64_t fingerprint() const;

  /// The memoization cache (tests assert builds()/hits()).
  const pre::PipelineCache& cache() const { return cache_; }

 private:
  /// One fused run at the batch's precision (`cfg_.sim.precision`); `run()`
  /// dispatches each planned width through `solver::dispatchEngineType`.
  template <typename Real, int W>
  bool runPlanned(idx_t runIndex, std::uint64_t resumeCycles, bool loadState,
                  const ResultCallback& onResult, BatchStats& stats, int_t& snapshotsWritten);

  /// The pipeline config every run shares (the solver's discretization and
  /// clustering knobs mirrored in); runs differ only in their model key.
  pre::PipelineConfig pipelineConfig() const;

  const seismo::VelocityModel& model_;
  BatchConfig cfg_;
  std::uint64_t modelKey_ = 0;
  std::vector<ScenarioRequest> requests_;
  std::vector<PlannedRun> plan_;
  bool planned_ = false;
  bool ran_ = false;
  pre::PipelineCache cache_;
};

/// The quickstart scenario's 1 km^3 two-layer box as a batch base: soft
/// layer (vs 500) over stiff halfspace (vs 2000, boundary z = -250), Ricker
/// moment source, one receiver — the `nglts batch` default and the
/// equivalence tests' fixture.
seismo::LayeredModel quickstartBatchModel();
BatchConfig quickstartBatchConfig();
/// Hash of `quickstartBatchModel`'s parameters for `BatchEngine`'s modelKey.
std::uint64_t quickstartBatchModelKey();

} // namespace nglts::batch
