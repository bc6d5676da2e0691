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
// Templated on the kernel scalar and the fused-simulation width W.
#include "parallel/dist_sim.hpp"

namespace nglts::solver {

template <typename Real, int W>
using Simulation = parallel::DistributedSimulation<Real, W>;

} // namespace nglts::solver
