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
// The dynamic executor mode (`--executor dynamic`, SimConfig::executorMode)
// keeps that exact invariant while relaxing *placement*: the op is cut into
// `dynamicChunkCount(numThreads)` chunks by the same pure `staticChunk` map
// and `stealChunks` lets idle threads steal whole chunks. Chunks stay the
// indivisible unit — each runs on one (arbitrary) thread with its own
// workspace — so dynamic results are bitwise-identical to the static
// reference; only the chunk→OS-thread binding is timing-dependent.
//
// Both chunk runners execute their chunks under `ScopedFlushDenormals`
// (common/float_env.hpp), entered on every team thread: the FP control
// register is per thread, and the pool threads outlive any one region.
#include <atomic>
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

/// Chunks per configured thread the dynamic executor over-decomposes each
/// op into. More chunks = finer stealing granularity (better balance on
/// skewed per-element cost) but more scheduling overhead and a chunk map
/// further from the arena's first-touch layout; 4 is the usual sweet spot
/// for loops whose per-chunk cost varies by small integer factors.
inline constexpr int_t kStealChunksPerThread = 4;

/// Chunk count of the dynamic executor's chunk map for `nThreads`. Pure
/// function: the map stays a function of (range, config), never of runtime
/// thread timing — the bitwise-determinism invariant of `staticChunk`.
inline int_t dynamicChunkCount(int_t nThreads) { return nThreads * kStealChunksPerThread; }

/// One claim cursor per work-stealing queue, cache-line padded: owner and
/// thieves contend on it with `fetch_add`, and adjacent queues must not
/// false-share.
struct alignas(kAlignment) StealCursor {
  std::atomic<idx_t> next{0};
};

/// Work-stealing execution of the chunk ids [0, nChunks), each exactly once.
///
/// Queue q (one per configured thread, q in [0, nThreads)) holds the
/// round-robin slice q, q + nThreads, q + 2*nThreads... Each queue has a
/// single atomic claim cursor: the owning thread drains its own queue with
/// `fetch_add`, then turns thief and drains its neighbors' queues in
/// deterministic victim order (q+1, q+2, ... mod nThreads) through the very
/// same cursor. Every `fetch_add` yields a distinct slot, so each chunk is
/// claimed by exactly one thread and runs as one indivisible unit — no
/// chunk is ever split or run twice, which is the whole bitwise-determinism
/// argument: *which* thread runs a chunk is timing-dependent, but the
/// chunk→element map and the per-chunk workspaces are not.
///
/// If the OpenMP runtime delivers a smaller team than `nThreads` (or OpenMP
/// is off), ownerless queues are simply drained by thieves — the executed
/// chunk set never changes.
template <typename Fn>
void stealChunks(int_t nChunks, int_t nThreads, Fn&& fn) {
#ifdef _OPENMP
  std::vector<StealCursor> cursor(nThreads);
#pragma omp parallel num_threads(static_cast<int>(nThreads))
  {
    const ScopedFlushDenormals flush;
    const int_t self = static_cast<int_t>(omp_get_thread_num());
    for (int_t v = 0; v < nThreads; ++v) {
      const int_t q = (self + v) % nThreads;
      for (;;) {
        // Relaxed is sufficient: the fetch_add's atomicity alone guarantees
        // unique claims, and the parallel region's end barrier orders every
        // chunk's writes before any later read of them.
        const idx_t k = cursor[q].next.fetch_add(1, std::memory_order_relaxed);
        const idx_t slot = q + k * nThreads;
        if (slot >= nChunks) break;
        fn(static_cast<int_t>(slot));
      }
    }
  }
#else
  const ScopedFlushDenormals flush;
  for (int_t c = 0; c < nChunks; ++c) fn(c);
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
  /// `recStackSize` is `SolverState::stackSize()` (order x 9 x B x W).
  /// `nChunks` is the executor's chunk count: numThreads for the static
  /// mode, `dynamicChunkCount(numThreads)` for the work-stealing mode.
  WorkspacePool(const kernels::AderKernels<Real, W>& kernels, std::size_t recStackSize,
                int_t nChunks) {
    ws_.resize(nChunks);
    forEachChunk(nChunks, [&](int_t t) {
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
