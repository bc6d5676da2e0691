#pragma once
// Layer 2 of the solver core: schedule execution. `StepExecutor` runs the
// flattened rate-2 LTS op sequence (lts::ScheduleOp, paper Sec. V-B) over
// the cluster-contiguous element ranges of a `SolverState`, one parallel
// region per (phase, cluster) op: the op's range is cut into static
// contiguous chunks (solver/threading.hpp), one per configured thread, and
// chunk t runs on thread t — the same map the arena's NUMA first-touch
// pass used, so every thread streams through pages it placed itself. The
// distributed engine runs an op as two calls over the halo-boundary and
// interior sub-ranges of the cluster's range; an empty sub-range opens no
// parallel region. The neighbor-data paradigms — the paper's
// next-generation three-buffer scheme (GTS is its one-cluster case) and the
// buffer+derivative baseline of [15] — are strategy classes behind the
// `NeighborDataPolicy` interface instead of `if (scheme)` branches in the
// hot loop.
//
// The executor owns the per-thread `WorkspacePool` (kernel scratch,
// receiver derivative stacks, flop counters); sources and receivers stay in
// the engine (parallel/dist_sim.hpp), which participates through the
// `LocalHook` extension point (called after the kernel local phase of each
// element).
// Results are bitwise-identical for every `numThreads`: each element is
// updated by exactly one chunk in a fixed order, neighbor reads go through
// the double-buffered policy data, and hook state is only touched from the
// element that owns it.
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "solver/config.hpp"
#include "solver/state.hpp"
#include "solver/threading.hpp"

namespace nglts::solver {

/// Strategy interface: where the neighbor phase of an element reads the
/// neighbor's time-integrated elastic data from (paper Sec. V-B). Internal
/// element ids throughout.
template <typename Real, int W>
class NeighborDataPolicy {
 public:
  using Scratch = typename kernels::AderKernels<Real, W>::Scratch;

  virtual ~NeighborDataPolicy() = default;

  /// Data (9 x nb x W) consumed by face `fi` of element `el` at sub-step
  /// `myStep` of its cluster; may stage a combination into `s.bufCombo`.
  virtual const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                           std::uint64_t& flops) const = 0;

  /// Whether `data()` for this face returns the *face-local* 9 x nf x W
  /// projection (the neighboring-flux-matrix product already applied on the
  /// producing side — the compressed message payload of Sec. V-C) instead
  /// of the element-local 9 x nb x W representation. The executor then
  /// consumes it via `neighborContributionFaceLocal`.
  virtual bool faceLocal(idx_t el, const mesh::FaceInfo& fi) const {
    (void)el;
    (void)fi;
    return false;
  }

  /// Whether the local phase must persist the full ADER derivative stack of
  /// every element (the baseline scheme's neighbor-data representation).
  virtual bool needsDerivStack() const { return false; }
};

/// Build the policy matching `cfg.scheme` over a state's buffers.
template <typename Real, int W>
std::unique_ptr<NeighborDataPolicy<Real, W>> makeNeighborDataPolicy(
    const SimConfig& cfg, const SolverState<Real, W>& state,
    const kernels::AderKernels<Real, W>& kernels, const std::vector<double>& clusterDt);

template <typename Real, int W>
class StepExecutor {
 public:
  using Scratch = typename kernels::AderKernels<Real, W>::Scratch;

  /// Facade extension point, invoked inside the local-phase element loop
  /// after the kernels ran (source injection, receiver sampling). Internal
  /// element ids. Thread-safety contract: an op's element range is
  /// partitioned across threads, so `afterLocal` runs concurrently for
  /// *different* elements but never twice for the same element within an
  /// op — implementations may freely mutate state keyed by `internalEl`
  /// (per-source, per-receiver accumulators) and must not mutate anything
  /// shared across elements. Accumulation order per element-bound object is
  /// then deterministic regardless of the thread count.
  class LocalHook {
   public:
    virtual ~LocalHook() = default;
    /// Whether `internalEl` needs the predictor's derivative stack kept
    /// (receiver elements); ignored under the baseline scheme, which keeps
    /// every element's stack in the state arena anyway.
    virtual bool wantsStack(idx_t internalEl) const = 0;
    /// Called for every element after its local phase. `stack` is the
    /// element's derivative stack or nullptr if not requested/kept.
    virtual void afterLocal(idx_t internalEl, Real* q, const Real* stack, double t0,
                            double dt, std::uint64_t& flops) = 0;
  };

  /// `policy` overrides the scheme-derived neighbor-data strategy (nullptr
  /// = `makeNeighborDataPolicy(cfg, ...)`); the distributed driver injects
  /// its halo decorator here.
  StepExecutor(const SimConfig& cfg, const kernels::AderKernels<Real, W>& kernels,
               SolverState<Real, W>& state, const lts::Clustering& clustering,
               std::vector<lts::ScheduleOp> schedule, LocalHook* hook,
               std::unique_ptr<NeighborDataPolicy<Real, W>> policy = nullptr);

  /// Execute a single schedule op over its whole cluster range; one full
  /// LTS cycle (every cluster advances by the largest cluster's step) is
  /// `schedule()` run op by op. Step counters persist across calls. The
  /// distributed engine uses the sub-range overload below instead, to
  /// interleave halo sends/receives inside each op.
  void runOp(const lts::ScheduleOp& op);

  /// Execute `op` over only the internal range [begin, end) inside the op's
  /// cluster range — the distributed engine splits an op into the
  /// interior and halo-boundary sub-ranges (`SolverState::haloBoundaryBegin`)
  /// so communication can proceed during the interior compute. Element
  /// updates within one op are independent (each writes only its own data;
  /// hooks are element-owned), so any partition of the op's range into
  /// sub-range calls is bitwise-identical to one full-range `runOp`. For
  /// kNeighbor ops the cluster step counter advances only when `completesOp`
  /// is true — pass it on the op's final sub-range; the sub-step parity read
  /// by halo packing must not move until every element of the op has run.
  /// Ignored for kLocal ops (the local phase never advances the counter).
  void runOp(const lts::ScheduleOp& op, idx_t begin, idx_t end, bool completesOp);

  idx_t clusterStep(int_t cluster) const { return clusterStep_[cluster]; }
  /// Move the schedule position to the boundary after `cycles` full LTS
  /// cycles: cluster c at `cycles * lts::stepsPerCycle(nc, c)` steps. The
  /// counters feed the sub-step parity and the element-local time
  /// t0 = step * dt, so a run restored from a snapshot replays the exact op
  /// sequence of an uninterrupted one.
  void resumeAtCycle(std::uint64_t cycles);
  const std::vector<lts::ScheduleOp>& schedule() const { return schedule_; }

  /// Sum the per-thread flop counters and reset them.
  std::uint64_t drainFlops();

 private:
  void localElement(idx_t el, double dt, double t0, bool odd, int_t tid);
  void neighborElement(idx_t el, idx_t step, int_t tid);
  /// Run `fn(el, tid)` over [begin, end) in nThreads_ chunks of the pure
  /// `staticChunk` map, chunk t on thread t (threading.hpp). `tid` is the
  /// chunk id.
  template <typename Fn>
  void parallelRange(idx_t begin, idx_t end, Fn&& fn);

  const kernels::AderKernels<Real, W>& kernels_;
  SolverState<Real, W>& state_;
  std::vector<double> clusterDt_;
  std::vector<lts::ScheduleOp> schedule_;
  std::vector<idx_t> clusterStep_;
  LocalHook* hook_ = nullptr;
  std::unique_ptr<NeighborDataPolicy<Real, W>> policy_;

  int_t nThreads_ = 1;           ///< SimConfig::numThreads (validated >= 1)
  WorkspacePool<Real, W> pool_;  ///< per-chunk scratch/recStack/flops
};

extern template class StepExecutor<float, 1>;
extern template class StepExecutor<float, 2>;
extern template class StepExecutor<float, 4>;
extern template class StepExecutor<float, 8>;
extern template class StepExecutor<float, 16>;
extern template class StepExecutor<double, 1>;
extern template class StepExecutor<double, 2>;
extern template class StepExecutor<double, 4>;

} // namespace nglts::solver
