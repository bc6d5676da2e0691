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
// parallel region. One function, `neighborData`, holds the neighbor-data
// rule of both paradigms — the paper's next-generation three-buffer scheme
// (GTS is its one-cluster case) and the buffer+derivative baseline of [15]
// — for owned neighbors, read from the arena, and halo neighbors, read from
// the ghost buffers the distributed engine fills, side by side.
//
// The executor owns the per-thread `WorkspacePool` (kernel scratch,
// receiver derivative stacks, flop counters); sources and receivers live in
// the rank's `SeismoHook` (solver/seismo_hook.hpp), which the executor
// calls after the kernel local phase of each element.
// Results are bitwise-identical for every `numThreads`: each element is
// updated by exactly one chunk in a fixed order, neighbor reads go through
// the double-buffered B1/B2/B3 data and ghost buffers, and hook state is only
// touched from the element that owns it.
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "solver/config.hpp"
#include "solver/state.hpp"
#include "solver/threading.hpp"

namespace nglts::solver {

/// What a rank's halo faces consume, filled by the distributed engine's
/// receives (parallel/exchange.cpp). Entry (internal halo id - numOwned) * 4
/// + producer face points into the receive buffer of the halo channel that
/// carries the face: the next-generation scheme keeps B2 in ds0 and B1 - B2
/// in ds1 for a larger remote neighbor (one message serves two local
/// sub-steps); everything else lives in ds0 (B1 or B3 — raw 9 x B or
/// face-local 9 x F — or the baseline scheme's derivative stack, unpacked to
/// full layout). Written serially between schedule ops, read concurrently by
/// the executor's neighbor loop.
template <typename Real>
struct HaloGhosts {
  std::vector<const Real*> ds0, ds1;
  /// The payloads are face-local 9 x F projections (the neighboring-flux
  /// product already applied by the producer, Sec. V-C), consumed through
  /// `neighborContributionFaceLocal`, instead of element-local 9 x B data.
  bool faceLocal = false;
};

template <typename Real, int W>
class SeismoHook;

template <typename Real, int W>
class StepExecutor {
 public:
  using Scratch = typename kernels::AderKernels<Real, W>::Scratch;

  /// `hook` (may be null) injects sources and samples receivers inside the
  /// local-phase element loop, after the kernels ran, by internal element
  /// id; it must outlive the executor. An op's element range is split
  /// across threads, so the hook runs concurrently for different elements
  /// but never twice for the same element within an op (seismo_hook.hpp).
  /// `ghosts` serves the faces to the state's halo elements; it must
  /// outlive the executor and is required iff the state has a halo.
  StepExecutor(const SimConfig& cfg, const kernels::AderKernels<Real, W>& kernels,
               SolverState<Real, W>& state, const lts::Clustering& clustering,
               std::vector<lts::ScheduleOp> schedule, SeismoHook<Real, W>* hook,
               const HaloGhosts<Real>* ghosts = nullptr);

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
  /// What face `fi` of element `el` consumes at sub-step `step` of its
  /// cluster (paper Sec. V-B): 9 x nb x W element-local data, or the 9 x F
  /// face-local projection when `faceLocal`. May stage a combination into
  /// `s.bufCombo`.
  struct FaceData {
    const Real* data;
    bool faceLocal;
  };
  FaceData neighborData(idx_t el, const mesh::FaceInfo& fi, idx_t step, Scratch& s,
                        std::uint64_t& flops) const;
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
  SeismoHook<Real, W>* hook_ = nullptr;
  const HaloGhosts<Real>* ghosts_ = nullptr;
  bool baseline_ = false; ///< buffer+derivative scheme: keeps every derivative stack

  int_t nThreads_ = 1;           ///< SimConfig::numThreads (validated >= 1)
  WorkspacePool<Real, W> pool_;  ///< per-chunk scratch/recStack/flops
};

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, extern, StepExecutor)

} // namespace nglts::solver
