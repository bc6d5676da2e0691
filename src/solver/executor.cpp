#include "solver/executor.hpp"

#include <stdexcept>

#include "solver/seismo_hook.hpp"

namespace nglts::solver {

namespace {

/// Validated before `WorkspacePool` sizes anything off it (the engine
/// validates too; this covers direct executor construction in tests).
int_t checkedThreads(int_t numThreads) {
  if (numThreads < 1) throw std::invalid_argument("StepExecutor: numThreads must be >= 1");
  return numThreads;
}

} // namespace

template <typename Real, int W>
StepExecutor<Real, W>::StepExecutor(const SimConfig& cfg,
                                    const kernels::AderKernels<Real, W>& kernels,
                                    SolverState<Real, W>& state,
                                    const lts::Clustering& clustering,
                                    std::vector<lts::ScheduleOp> schedule,
                                    SeismoHook<Real, W>* hook,
                                    const HaloGhosts<Real>* ghosts)
    : kernels_(kernels),
      state_(state),
      clusterDt_(clustering.clusterDt),
      schedule_(std::move(schedule)),
      clusterStep_(clustering.numClusters, 0),
      hook_(hook),
      ghosts_(ghosts),
      baseline_(cfg.scheme == TimeScheme::kLtsBaseline),
      nThreads_(checkedThreads(cfg.numThreads)),
      pool_(kernels, state.stackSize(), nThreads_) {
  if (state.numHalo() > 0 && !ghosts)
    throw std::invalid_argument("StepExecutor: a state with a halo needs ghost slots");
}

template <typename Real, int W>
template <typename Fn>
void StepExecutor<Real, W>::parallelRange(idx_t begin, idx_t end, Fn&& fn) {
  // Static chunks of the contiguous range are themselves contiguous: the
  // arena streaming of the reordered layout survives, and for a whole
  // cluster range the element→chunk map matches the first-touch pass of
  // SolverState — thread t walks pages it placed. The map depends only on
  // (range, numThreads), so results are bitwise-identical for every thread
  // count. An empty range (the boundary sub-range of a rank without halo)
  // returns before opening a parallel region.
  if (begin == end) return;
  forEachChunk(nThreads_, [&](int_t t) {
    const ChunkRange c = staticChunk(begin, end, nThreads_, t);
    for (idx_t el = c.begin; el < c.end; ++el) fn(el, t);
  });
}

template <typename Real, int W>
void StepExecutor<Real, W>::localElement(idx_t el, double dt, double t0, bool odd, int_t tid) {
  auto& w = pool_[tid];
  auto& s = w.scratch;
  std::uint64_t flops = 0;
  Real* q = state_.q(el);
  Real* b1 = state_.b1(el);
  Real* b2 = state_.b2(el); // nullptr where no neighbor reads it
  Real* b3 = state_.b3(el);
  const bool hookStack = hook_ && hook_->wantsStack(el);
  Real* stack = baseline_ ? state_.derivStack(el)
                           : (hookStack ? w.recStack.data() : nullptr);

  const kernels::ElementData<Real> ed = state_.elementData(el);
  flops += kernels_.timePredict(ed, q, static_cast<Real>(dt), s.timeInt.data(), b1, b2, b3, odd,
                                s, stack);
  // The counter keeps the scheme's analytic count, as if every element
  // wrote the B2/B3 its scheme keeps (like the star's dense count).
  flops += kernels_.bufferFlops(state_.useB2() && !b2, state_.useB3() && !b3 && odd);
  flops += kernels_.volumeAndLocalSurface(ed, s.timeInt.data(), q, s);

  if (hook_) hook_->afterLocal(el, q, stack, t0, dt, flops);
  w.flops += flops;
}

template <typename Real, int W>
typename StepExecutor<Real, W>::FaceData StepExecutor<Real, W>::neighborData(
    idx_t el, const mesh::FaceInfo& fi, idx_t step, Scratch& s, std::uint64_t& flops) const {
  const int_t cMe = state_.clusterOf(el);
  const int_t cNb = state_.clusterOf(fi.neighbor); // the global cluster, halo ids too
  // The second half-window of a larger neighbor (odd sub-step).
  const bool oddLarger = cNb > cMe && step % 2 != 0;
  const GhostSlot<Real>* g =
      state_.isHalo(fi.neighbor)
          ? &ghosts_->slots[ghosts_->slotOf[(fi.neighbor - state_.numOwned()) * 4 +
                                            fi.neighborFace]]
          : nullptr;
  if (baseline_) {
    // Buffer+derivative baseline of [15]: a smaller neighbor serves its B3
    // window accumulator; an equal or larger one's derivative stack is
    // re-integrated over this element's interval.
    if (cNb < cMe) return {g ? g->ds0.data() : state_.b3(fi.neighbor), false};
    const double dtMe = clusterDt_[cMe];
    const double a = oddLarger ? dtMe : 0.0;
    flops += kernels_.integrateDerivStack(g ? g->ds0.data() : state_.derivStack(fi.neighbor),
                                          static_cast<Real>(a), static_cast<Real>(dtMe),
                                          s.bufCombo.data());
    return {s.bufCombo.data(), false};
  }
  // Next-generation three-buffer scheme (Sec. V-B / Fig. 6): equal cluster
  // -> B1, smaller neighbor -> B3, larger neighbor -> B2 on the first
  // half-window and B1 - B2 on the second. A ghost slot holds the same data,
  // with B1 - B2 already combined by the producer in ds1.
  if (g) return {oddLarger ? g->ds1.data() : g->ds0.data(), ghosts_->faceLocal};
  const Real* b1 = state_.b1(fi.neighbor);
  if (cNb == cMe) return {b1, false};
  if (cNb < cMe) return {state_.b3(fi.neighbor), false};
  const Real* b2 = state_.b2(fi.neighbor);
  if (!oddLarger) return {b2, false};
  Real* combo = s.bufCombo.data();
  const std::size_t n = state_.bufSize();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) combo[i] = b1[i] - b2[i];
  flops += n;
  return {combo, false};
}

template <typename Real, int W>
void StepExecutor<Real, W>::neighborElement(idx_t el, idx_t step, int_t tid) {
  auto& w = pool_[tid];
  auto& s = w.scratch;
  std::uint64_t flops = 0;
  Real* q = state_.q(el);
  const auto& faces = state_.internalMesh().faces[el];
  const kernels::ElementData<Real> ed = state_.elementData(el);
  for (int_t f = 0; f < 4; ++f) {
    const mesh::FaceInfo& fi = faces[f];
    if (fi.neighbor < 0) continue;
    const FaceData d = neighborData(el, fi, step, s, flops);
    if (d.faceLocal)
      flops += kernels_.neighborContributionFaceLocal(ed, f, d.data, q, s);
    else
      flops += kernels_.neighborContribution(ed, f, fi.neighborFace, fi.perm, d.data, q, s);
  }
  w.flops += flops;
}

template <typename Real, int W>
void StepExecutor<Real, W>::runOp(const lts::ScheduleOp& op) {
  runOp(op, state_.clusterBegin(op.cluster), state_.clusterEnd(op.cluster), true);
}

template <typename Real, int W>
void StepExecutor<Real, W>::runOp(const lts::ScheduleOp& op, idx_t begin, idx_t end,
                                  bool completesOp) {
  const int_t cluster = op.cluster;
  const idx_t step = clusterStep_[cluster];
  if (op.kind == lts::PhaseKind::kLocal) {
    const double dt = clusterDt_[cluster];
    const bool odd = (step % 2) != 0;
    const double t0 = step * dt;
    parallelRange(begin, end, [&](idx_t el, int_t tid) { localElement(el, dt, t0, odd, tid); });
  } else {
    parallelRange(begin, end, [&](idx_t el, int_t tid) { neighborElement(el, step, tid); });
    if (completesOp) ++clusterStep_[cluster];
  }
}

template <typename Real, int W>
void StepExecutor<Real, W>::resumeAtCycle(std::uint64_t cycles) {
  const auto nc = static_cast<int_t>(clusterStep_.size());
  for (int_t c = 0; c < nc; ++c)
    clusterStep_[c] = static_cast<idx_t>(cycles) * lts::stepsPerCycle(nc, c);
}

template <typename Real, int W>
std::uint64_t StepExecutor<Real, W>::drainFlops() {
  return pool_.drainFlops();
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, , StepExecutor)

} // namespace nglts::solver
