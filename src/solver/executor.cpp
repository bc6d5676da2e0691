#include "solver/executor.hpp"

#include <stdexcept>

namespace nglts::solver {

namespace {

/// Next-generation three-buffer scheme (paper Sec. V-B / Fig. 6):
/// equal cluster -> B1, smaller neighbor -> its B3 window accumulator,
/// larger neighbor -> its B2 on the first half-window, B1 - B2 on the second.
/// GTS is its one-cluster case: every neighbor serves the B1 it wrote in the
/// same step.
template <typename Real, int W>
class ThreeBufferNeighborData final : public NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename NeighborDataPolicy<Real, W>::Scratch;

  ThreeBufferNeighborData(const SolverState<Real, W>& state, std::size_t bufSize)
      : state_(state), bufSize_(bufSize) {}

  const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                   std::uint64_t& flops) const override {
    const int_t cMe = state_.clusterOf(el);
    const int_t cNb = state_.clusterOf(fi.neighbor);
    const Real* b1 = state_.b1(fi.neighbor);
    if (cNb == cMe) return b1;
    if (cNb < cMe) return state_.b3(fi.neighbor);
    // Larger neighbor: first half-window uses B2, second B1 - B2 (Fig. 6).
    const Real* b2 = state_.b2(fi.neighbor);
    if (myStep % 2 == 0) return b2;
    Real* combo = s.bufCombo.data();
#pragma omp simd
    for (std::size_t i = 0; i < bufSize_; ++i) combo[i] = b1[i] - b2[i];
    flops += bufSize_;
    return combo;
  }

 private:
  const SolverState<Real, W>& state_;
  std::size_t bufSize_;
};

/// Buffer+derivative baseline of [15]: equal-or-larger neighbors re-integrate
/// the neighbor's ADER derivative stack over the consuming element's
/// interval; smaller neighbors are served by the B3 accumulator.
template <typename Real, int W>
class BufferDerivativeNeighborData final : public NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename NeighborDataPolicy<Real, W>::Scratch;

  BufferDerivativeNeighborData(const SolverState<Real, W>& state,
                               const kernels::AderKernels<Real, W>& kernels,
                               std::vector<double> clusterDt)
      : state_(state), kernels_(kernels), clusterDt_(std::move(clusterDt)) {}

  const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                   std::uint64_t& flops) const override {
    const int_t cMe = state_.clusterOf(el);
    const int_t cNb = state_.clusterOf(fi.neighbor);
    if (cNb < cMe) return state_.b3(fi.neighbor);
    // Equal or larger: integrate the neighbor's derivative stack over this
    // element's interval (the receiver-side evaluations of [15]).
    const double dtMe = clusterDt_[cMe];
    const double a = (cNb > cMe && (myStep % 2)) ? dtMe : 0.0;
    flops += kernels_.integrateDerivStack(state_.derivStack(fi.neighbor),
                                          static_cast<Real>(a), static_cast<Real>(dtMe),
                                          s.bufCombo.data());
    return s.bufCombo.data();
  }

  bool needsDerivStack() const override { return true; }

 private:
  const SolverState<Real, W>& state_;
  const kernels::AderKernels<Real, W>& kernels_;
  std::vector<double> clusterDt_;
};

/// Validated before `WorkspacePool` sizes anything off it (the engine
/// validates too; this covers direct executor construction in tests).
int_t checkedThreads(int_t numThreads) {
  if (numThreads < 1) throw std::invalid_argument("StepExecutor: numThreads must be >= 1");
  return numThreads;
}

} // namespace

template <typename Real, int W>
std::unique_ptr<NeighborDataPolicy<Real, W>> makeNeighborDataPolicy(
    const SimConfig& cfg, const SolverState<Real, W>& state,
    const kernels::AderKernels<Real, W>& kernels, const std::vector<double>& clusterDt) {
  switch (cfg.scheme) {
    case TimeScheme::kGts:
    case TimeScheme::kLtsNextGen:
      return std::make_unique<ThreeBufferNeighborData<Real, W>>(state, state.bufSize());
    case TimeScheme::kLtsBaseline:
      return std::make_unique<BufferDerivativeNeighborData<Real, W>>(state, kernels, clusterDt);
  }
  throw std::invalid_argument("makeNeighborDataPolicy: unknown scheme");
}

template <typename Real, int W>
StepExecutor<Real, W>::StepExecutor(const SimConfig& cfg,
                                    const kernels::AderKernels<Real, W>& kernels,
                                    SolverState<Real, W>& state,
                                    const lts::Clustering& clustering,
                                    std::vector<lts::ScheduleOp> schedule, LocalHook* hook,
                                    std::unique_ptr<NeighborDataPolicy<Real, W>> policy)
    : kernels_(kernels),
      state_(state),
      clusterDt_(clustering.clusterDt),
      schedule_(std::move(schedule)),
      clusterStep_(clustering.numClusters, 0),
      hook_(hook),
      policy_(policy ? std::move(policy)
                     : makeNeighborDataPolicy<Real, W>(cfg, state, kernels, clusterDt_)),
      nThreads_(checkedThreads(cfg.numThreads)),
      pool_(kernels, state.stackSize(), nThreads_) {}

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
  const bool arenaStack = policy_->needsDerivStack();
  const bool hookStack = hook_ && hook_->wantsStack(el);
  Real* stack = arenaStack ? state_.derivStack(el)
                           : (hookStack ? w.recStack.data() : nullptr);

  flops += kernels_.timePredict(state_.elementData(el), q, static_cast<Real>(dt),
                                s.timeInt.data(), b1, b2, b3, odd, s, stack);
  // The counter keeps the scheme's analytic count, as if every element
  // wrote the B2/B3 its scheme keeps (like the star's dense count).
  flops += kernels_.bufferFlops(state_.useB2() && !b2, state_.useB3() && !b3 && odd);
  flops += kernels_.volumeAndLocalSurface(state_.elementData(el), s.timeInt.data(), q, s);

  if (hook_) hook_->afterLocal(el, q, stack, t0, dt, flops);
  w.flops += flops;
}

template <typename Real, int W>
void StepExecutor<Real, W>::neighborElement(idx_t el, idx_t step, int_t tid) {
  auto& w = pool_[tid];
  auto& s = w.scratch;
  std::uint64_t flops = 0;
  Real* q = state_.q(el);
  const auto& faces = state_.internalMesh().faces[el];
  for (int_t f = 0; f < 4; ++f) {
    const mesh::FaceInfo& fi = faces[f];
    if (fi.neighbor < 0) continue;
    const Real* data = policy_->data(el, fi, step, s, flops);
    if (policy_->faceLocal(el, fi))
      flops += kernels_.neighborContributionFaceLocal(state_.elementData(el), f, data, q, s);
    else
      flops += kernels_.neighborContribution(state_.elementData(el), f, fi.neighborFace,
                                             fi.perm, data, q, s);
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

template class StepExecutor<float, 1>;
template class StepExecutor<float, 2>;
template class StepExecutor<float, 4>;
template class StepExecutor<float, 8>;
template class StepExecutor<float, 16>;
template class StepExecutor<double, 1>;
template class StepExecutor<double, 2>;
template class StepExecutor<double, 4>;

template std::unique_ptr<NeighborDataPolicy<float, 1>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 1>&, const kernels::AderKernels<float, 1>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 2>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 2>&, const kernels::AderKernels<float, 2>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 4>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 4>&, const kernels::AderKernels<float, 4>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 8>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 8>&, const kernels::AderKernels<float, 8>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 16>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 16>&, const kernels::AderKernels<float, 16>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 1>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 1>&, const kernels::AderKernels<double, 1>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 2>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 2>&, const kernels::AderKernels<double, 2>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 4>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 4>&, const kernels::AderKernels<double, 4>&,
    const std::vector<double>&);

} // namespace nglts::solver
