#pragma once
// Deterministic thread-parallel execution primitives of the solver core.
//
// The clustered LTS design exposes, per schedule op, one large contiguous
// element range (the cluster's slice of the `SolverState` arena). The
// executor streams that range across OpenMP threads in *static chunks*:
// `staticChunk` maps a range and a configured thread count to the one
// contiguous sub-range chunk `t` owns. The same map is used by
//   * `StepExecutor`'s local/neighbor element loops (executor.cpp),
//   * `SolverState`'s NUMA first-touch zero-fill pass (state.cpp), and
//   * `WorkspacePool`'s per-thread scratch allocation (below),
// so the pages an element's DOFs live on are first touched — and therefore
// placed — by the thread that later computes that element.
//
// Determinism: the chunk map depends only on (range, SimConfig::numThreads),
// never on the OpenMP team the runtime actually delivers. `forEachChunk`
// runs chunk t on team thread t and falls back to striding (or to a plain
// serial loop without OpenMP) when the team is smaller, so results are
// bitwise-identical for any machine state — each element is updated by
// exactly one chunk, in a fixed intra-chunk order, with chunk-private
// scratch.
//
// `forEachChunk` executes its chunks under `ScopedFlushDenormals`
// (common/float_env.hpp), entered on every team thread: the FP control
// register is per thread, and the pool threads outlive any one region.
#include <cstdint>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/aligned.hpp"
#include "common/float_env.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"

namespace nglts::solver {

/// Threads the OpenMP runtime would give a parallel region here (honors
/// OMP_NUM_THREADS); 1 in serial builds. The scenario CLI uses this as the
/// `--threads` default.
inline int_t hardwareThreads() {
#ifdef _OPENMP
  return static_cast<int_t>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// Half-open internal-index range [begin, end).
struct ChunkRange {
  idx_t begin = 0;
  idx_t end = 0;
};

/// The contiguous sub-range of [begin, end) owned by chunk `chunk` of
/// `nChunks`: near-equal sizes, the first `n % nChunks` chunks one element
/// longer. Pure function of its arguments — the executor's element loops
/// and the state's first-touch pass call it with the same inputs and get
/// the same element→thread map.
inline ChunkRange staticChunk(idx_t begin, idx_t end, int_t nChunks, int_t chunk) {
  const idx_t n = end - begin;
  const idx_t base = n / nChunks;
  const idx_t rem = n % nChunks;
  const idx_t b = begin + chunk * base + (chunk < rem ? chunk : rem);
  return {b, b + base + (chunk < rem ? 1 : 0)};
}

/// Run fn(t) for every chunk id t in [0, nChunks), chunk t on OpenMP team
/// thread t. If the runtime delivers a smaller team (or OpenMP is off) the
/// chunks are strided deterministically — the chunk→element map never
/// changes, only which OS thread executes it.
template <typename Fn>
void forEachChunk(int_t nChunks, Fn&& fn) {
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(nChunks))
  {
    const ScopedFlushDenormals flush;
    for (int_t t = static_cast<int_t>(omp_get_thread_num()); t < nChunks;
         t += static_cast<int_t>(omp_get_num_threads()))
      fn(t);
  }
#else
  const ScopedFlushDenormals flush;
  for (int_t t = 0; t < nChunks; ++t) fn(t);
#endif
}

/// Everything one executor thread mutates outside the arena: the ADER
/// kernel scratch, the receiver-element derivative stack, and the flop
/// counter. One instance per chunk id, allocated by its owning thread (so
/// scratch pages are NUMA-local too); the counter is cache-line aligned
/// against false sharing on the per-element `+=`.
template <typename Real, int W>
struct ThreadWorkspace {
  typename kernels::AderKernels<Real, W>::Scratch scratch;
  aligned_vector<Real> recStack; ///< predictor stack for receiver elements
  alignas(kAlignment) std::uint64_t flops = 0;
};

/// The per-thread workspace pool owned by the `StepExecutor` — the scratch
/// buffers that used to be handed out ad hoc from `AderKernels` live here,
/// one `ThreadWorkspace` per static chunk id.
template <typename Real, int W>
class WorkspacePool {
 public:
  /// `recStackSize` is `SolverState::stackSize()` (order x 9 x B x W);
  /// `numThreads` is `SimConfig::numThreads`, the executor's chunk count.
  WorkspacePool(const kernels::AderKernels<Real, W>& kernels, std::size_t recStackSize,
                int_t numThreads) {
    ws_.resize(numThreads);
    forEachChunk(numThreads, [&](int_t t) {
      auto w = std::make_unique<ThreadWorkspace<Real, W>>();
      w->scratch = kernels.makeScratch();
      w->recStack.assign(recStackSize, Real(0));
      ws_[t] = std::move(w);
    });
  }

  int_t size() const { return static_cast<int_t>(ws_.size()); }
  ThreadWorkspace<Real, W>& operator[](int_t t) { return *ws_[t]; }
  const ThreadWorkspace<Real, W>& operator[](int_t t) const { return *ws_[t]; }

  /// Sum the per-thread flop counters and reset them.
  std::uint64_t drainFlops() {
    std::uint64_t sum = 0;
    for (auto& w : ws_) {
      sum += w->flops;
      w->flops = 0;
    }
    return sum;
  }

 private:
  // unique_ptr per entry: each workspace is its own allocation made by the
  // thread that will use it — no two threads share a cache line or a page.
  std::vector<std::unique_ptr<ThreadWorkspace<Real, W>>> ws_;
};

} // namespace nglts::solver
