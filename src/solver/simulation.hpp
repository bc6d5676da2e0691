#pragma once
// `solver::Simulation`: the single-rank name of the one solver engine.
// `Simulation<Real, W>(mesh, materials, config)` is a one-rank
// `parallel::DistributedSimulation` — every element owned by rank 0, the
// SeqComm lockstep transport and no halo — so the same clustered-LTS engine
// (layers: `SolverState` arena, state.hpp; `StepExecutor` schedule engine,
// executor.hpp; sources and receivers, seismo_hook.hpp) runs every
// scenario, on one rank or many.
//
// Supported schemes (see StepExecutor::neighborData, executor.hpp):
//  * global time stepping (GTS == LTS with one cluster),
//  * the next-generation clustered LTS scheme (paper Sec. V), and
//  * the buffer+derivative baseline scheme of [15] (for the Tab. I
//    comparison; same kernels, different neighbor-data paradigm).
// Templated on the kernel scalar and the fused-simulation width W; the
// pairs that exist are the engine-type table (common/types.hpp), and
// `dispatchEngineType` below is the one runtime switch onto them.
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/dist_sim.hpp"

namespace nglts::solver {

template <typename Real, int W>
using Simulation = parallel::DistributedSimulation<Real, W>;

/// The fused widths the engine-type table lists at precision `p`, ascending.
inline std::vector<int_t> fusedWidths(Precision p) {
  std::vector<int_t> widths;
#define NGLTS_COLLECT_WIDTH(Real, W, ...) \
  if (precisionOf<Real>() == p) widths.push_back(W);
  NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_COLLECT_WIDTH)
#undef NGLTS_COLLECT_WIDTH
  return widths;
}

/// Return `f.template operator()<Real, W>()` for the engine type of
/// precision `p` and fused width `width`. A pair the table does not list
/// throws `std::invalid_argument` naming the widths listed at `p`.
template <typename F>
decltype(auto) dispatchEngineType(Precision p, int_t width, F&& f) {
#define NGLTS_DISPATCH_ENGINE_TYPE(Real, W, ...) \
  if (precisionOf<Real>() == p && width == W) return f.template operator()<Real, W>();
  NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_DISPATCH_ENGINE_TYPE)
#undef NGLTS_DISPATCH_ENGINE_TYPE
  std::string msg = "fused width " + std::to_string(width) + " is not built at " +
                    precisionName(p) + "; " + precisionName(p) + " widths:";
  for (int_t w : fusedWidths(p)) msg += ' ' + std::to_string(w);
  throw std::invalid_argument(msg);
}

/// Throw like `dispatchEngineType` unless (`p`, `width`) is a listed pair.
inline void checkEngineType(Precision p, int_t width) {
  dispatchEngineType(p, width, []<typename, int>() {});
}

} // namespace nglts::solver
