#pragma once
// Layer 3 of the solver core: the `Simulation` facade. Wires the clustering
// pipeline, the `SolverState` memory arena (state.hpp) and the
// `StepExecutor` schedule engine (executor.hpp) together, and owns what sits
// on top of the time loop: point sources, receivers (via the shared
// `SeismoHook`, seismo_hook.hpp) and the public API used by the CLI, the
// benches and the tests.
//
// Supported schemes (see executor.hpp's NeighborDataPolicy strategies):
//  * global time stepping (GTS == LTS with one cluster),
//  * the next-generation clustered LTS scheme (paper Sec. V), and
//  * the buffer+derivative baseline scheme of [15] (for the Tab. I
//    comparison; same kernels, different neighbor-data paradigm).
// Templated on the kernel scalar and the fused-simulation width W.
//
// Element ids on this API are *external* (the caller's mesh order);
// internally the state permutes elements into cluster-contiguous arena
// order and the facade translates through `state().toInternal()`.
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/config.hpp"
#include "solver/executor.hpp"
#include "solver/seismo_hook.hpp"
#include "solver/state.hpp"

namespace nglts::solver {

/// The constructor-time setup `Simulation` and `parallel::DistributedSimulation`
/// share, in one place: validation, precision normalization, geometry, CFL
/// steps, clustering, schedule and kernels, plus the cycle accounting both
/// `run()`s report. Both facades stepping the exact same clusters with the
/// exact same operators is the invariant behind the distributed engine's
/// bitwise equivalence to the single-rank run.
template <typename Real, int W>
struct FacadeSetup {
  /// Validates `cfg` and the mesh/material consistency (errors name
  /// `facade`), then normalizes `cfg.precision` to `Real` so the facade's
  /// config reports the precision that actually runs.
  FacadeSetup(const char* facade, SimConfig& cfg, const mesh::TetMesh& mesh,
              const std::vector<physics::Material>& materials);

  std::vector<mesh::ElementGeometry> geo; ///< external order
  lts::Clustering clustering;             ///< external order
  std::vector<lts::ScheduleOp> schedule;
  std::unique_ptr<kernels::AderKernels<Real, W>> kernels;

  double cycleDt() const { return clustering.clusterDt.back(); }
  /// Number of full LTS cycles that cover `endTime`.
  std::uint64_t cyclesFor(double endTime) const;
  /// Fill the counters a run of `cycles` full cycles implies: cycles,
  /// simulated time and per-lane element updates.
  void countCycles(PerfStats& stats, std::uint64_t cycles) const;
};

template <typename Real, int W>
class Simulation {
 public:
  /// Initial condition callback: fills the 9 elastic quantities at a
  /// physical point for one fused lane; memory variables start at zero.
  using InitFn = InitialConditionFn;

  Simulation(mesh::TetMesh mesh, std::vector<physics::Material> materials, SimConfig config);

  /// The executor holds a pointer to the facade's source/receiver hook; the
  /// facade is created in place (guaranteed copy elision covers factory
  /// returns).
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  const SimConfig& config() const { return cfg_; }
  /// The caller's mesh (external element order).
  const mesh::TetMesh& meshRef() const { return mesh_; }
  const lts::Clustering& clustering() const { return setup_.clustering; }
  const kernels::AderKernels<Real, W>& kernels() const { return *setup_.kernels; }
  /// The memory arena (cluster-contiguous internal layout, id mapping).
  const SolverState<Real, W>& state() const { return *state_; }
  double cycleDt() const { return setup_.cycleDt(); }

  void setInitialCondition(const InitFn& f);

  /// Register a point source; `laneScale` (size W, defaults to all-1)
  /// modulates the amplitude per fused lane — the paper's "ensembles of
  /// forward simulations" differ in their sources. Throws
  /// `std::invalid_argument` on a size mismatch.
  void addPointSource(const seismo::PointSource& src, std::vector<double> laneScale = {});

  /// Register a receiver; returns its index or -1 if the point lies outside
  /// the mesh.
  idx_t addReceiver(const std::array<double, 3>& position);
  /// Bounds-checked receiver access; throws `std::out_of_range`.
  const seismo::Receiver& receiver(idx_t i) const { return hook_->receiver(i); }
  idx_t numReceivers() const { return hook_->numReceivers(); }

  /// Advance by full LTS cycles until at least `endTime` is covered.
  PerfStats run(double endTime);

  /// Number of full LTS cycles `run(endTime)` executes.
  std::uint64_t cyclesFor(double endTime) const { return setup_.cyclesFor(endTime); }
  /// Advance by exactly `cycles` full LTS cycles — the checkpoint driver's
  /// entry point (batch/checkpoint.*): snapshots are taken at cycle
  /// boundaries, and `runCycles(a); runCycles(b)` is bitwise-identical to
  /// `runCycles(a + b)` (step counters persist across calls).
  PerfStats runCycles(std::uint64_t cycles);

  // -- checkpoint/restart surface (batch/checkpoint.*) ----------------------
  /// Mutable arena access for snapshot save/load. The arenas hold the
  /// complete time-loop state; everything else (mesh, operators, schedule)
  /// is rebuilt deterministically from the constructor inputs.
  SolverState<Real, W>& stateMut() { return *state_; }
  /// The executor's per-cluster step counters (schedule position).
  const std::vector<idx_t>& clusterSteps() const { return executor_->clusterSteps(); }
  /// Restore the schedule position; throws `std::invalid_argument` on a
  /// cluster-count mismatch.
  void restoreClusterSteps(const std::vector<idx_t>& steps) {
    executor_->restoreClusterSteps(steps);
  }
  /// Mutable receiver access for snapshot trace restore; same bounds
  /// contract as `receiver()`.
  seismo::Receiver& receiverMut(idx_t i) { return hook_->mutableReceiver(i); }

  /// Pointwise solution sample (elastic quantities) for verification.
  std::array<double, kElasticVars> sample(idx_t element, const std::array<double, 3>& xi,
                                          int_t lane = 0) const;

  /// Direct DOF access by external element id (tests).
  const Real* dofs(idx_t element) const { return state_->q(state_->toInternal(element)); }
  Real* dofs(idx_t element) { return state_->q(state_->toInternal(element)); }

  /// Total bytes a distributed run would ship per cycle for the configured
  /// scheme, if the mesh were cut along `partition` (Sec. V-C accounting;
  /// computed analytically, used by the comm-volume bench). `partition` is
  /// indexed by external element id.
  std::uint64_t cycleCommBytes(const std::vector<int_t>& partition, bool faceLocal) const;

 private:
  SimConfig cfg_;
  mesh::TetMesh mesh_;                        ///< external order
  std::vector<physics::Material> materials_;  ///< external order
  FacadeSetup<Real, W> setup_;

  std::unique_ptr<SolverState<Real, W>> state_;
  std::unique_ptr<SeismoHook<Real, W>> hook_; ///< sources + receivers
  std::unique_ptr<StepExecutor<Real, W>> executor_;
};

extern template struct FacadeSetup<float, 1>;
extern template struct FacadeSetup<float, 2>;
extern template struct FacadeSetup<float, 4>;
extern template struct FacadeSetup<float, 8>;
extern template struct FacadeSetup<float, 16>;
extern template struct FacadeSetup<double, 1>;
extern template struct FacadeSetup<double, 2>;
extern template struct FacadeSetup<double, 4>;

extern template class Simulation<float, 1>;
extern template class Simulation<float, 2>;
extern template class Simulation<float, 4>;
extern template class Simulation<float, 8>;
extern template class Simulation<float, 16>;
extern template class Simulation<double, 1>;
extern template class Simulation<double, 2>;
extern template class Simulation<double, 4>;

} // namespace nglts::solver
