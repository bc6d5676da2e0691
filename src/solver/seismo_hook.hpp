#pragma once
// Sources and receivers — the part of the engine that participates in the
// `StepExecutor`'s element loop (source injection after the local-phase
// kernels, receiver sampling from the ADER predictor's derivative stack).
// Every rank of `parallel::DistributedSimulation` owns one over the
// engine's global mesh, binds the sources and receivers inside its owned
// elements by global element id and hands the hook to its executor.
//
// Thread-safety under the threaded executor: every mutable object here is
// keyed by the element that owns it — source coefficients inject into the
// owning element's DOFs, a receiver's traces are appended only from its
// element's `afterLocal` — and the executor visits each element exactly
// once per op, on exactly one thread. Different elements' hooks run
// concurrently without sharing state, and each receiver's samples are
// appended in the element's fixed step order: the merge order is
// deterministic and independent of `SimConfig::numThreads` (asserted
// bitwise by the determinism matrix, tests/test_determinism.cpp).
//
// Also hosts the L2 initial-condition projection, so runs on any number of
// ranks start from bitwise-identical modal DOFs.
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/state.hpp"

namespace nglts::solver {

template <typename Real, int W>
class SeismoHook {
 public:
  /// All references must outlive the hook; `mesh`/`geo`/`materials` are the
  /// ones the state was built from (global element ids). `receiverDt` is the
  /// uniform receiver sampling interval (see SimConfig::receiverSampleDt).
  SeismoHook(const mesh::TetMesh& mesh, const std::vector<mesh::ElementGeometry>& geo,
             const std::vector<physics::Material>& materials,
             const kernels::AderKernels<Real, W>& kernels, const SolverState<Real, W>& state,
             double receiverDt);

  /// Bind a point source inside owned global element `element` (located by
  /// the caller). `laneScale` (size W; empty = all-1) modulates the amplitude
  /// per fused lane; throws `std::invalid_argument` on a size mismatch.
  void addPointSource(idx_t element, const seismo::PointSource& src,
                      std::vector<double> laneScale);

  /// Bind a receiver inside owned global element `element`; returns its
  /// index. `Receiver::element` is `element`.
  idx_t addReceiver(idx_t element, const std::array<double, 3>& position);

  /// Bounds-checked receiver access; throws `std::out_of_range`.
  const seismo::Receiver& receiver(idx_t i) const;
  /// Mutable bounds-checked access for checkpoint restore (batch/checkpoint.*
  /// replaces the recorded traces with the snapshot's); same range contract.
  seismo::Receiver& mutableReceiver(idx_t i);
  idx_t numReceivers() const { return static_cast<idx_t>(receivers_.size()); }

  // -- called by StepExecutor (internal element ids) ------------------------
  /// Whether `internalEl` needs the predictor's derivative stack kept
  /// (receiver elements); ignored under the baseline scheme, which keeps
  /// every element's stack in the state arena anyway.
  bool wantsStack(idx_t internalEl) const { return !elementReceivers_[internalEl].empty(); }
  /// Called for every element after its local phase. `stack` is the
  /// element's derivative stack or nullptr if not requested/kept.
  void afterLocal(idx_t internalEl, Real* q, const Real* stack, double t0, double dt,
                  std::uint64_t& flops);

 private:
  /// Dense receiver sampling from the predictor's derivative stack.
  void sampleReceivers(idx_t internalEl, const Real* derivStack, double t0, double dt);

  const mesh::TetMesh& mesh_;
  const std::vector<mesh::ElementGeometry>& geo_;
  const std::vector<physics::Material>& materials_;
  const kernels::AderKernels<Real, W>& kernels_;
  const SolverState<Real, W>& state_;
  double recDt_ = 0.0;

  struct BoundSource {
    idx_t element;            ///< internal id
    std::vector<Real> coeffs; ///< nq x nb x W modal injection coefficients
    std::shared_ptr<seismo::SourceTimeFunction> stf;
  };
  std::vector<BoundSource> sources_;
  std::vector<std::vector<idx_t>> elementSources_;   ///< internal el -> source ids
  std::vector<seismo::Receiver> receivers_;          ///< Receiver::element global
  std::vector<std::vector<idx_t>> elementReceivers_; ///< internal el -> receiver ids

  std::size_t elSize() const { return kernels_.dofsPerElement(); }
  std::size_t bufSize() const { return kernels_.elasticDofsPerElement(); }
};

/// Initial condition callback of the engine: fills the 9 elastic
/// quantities at a physical point for one fused lane.
using InitialConditionFn =
    std::function<void(const std::array<double, 3>& x, int_t lane, double* q9)>;

/// L2-project the initial condition onto the modal DOFs of the owned
/// elements of `state` (memory variables start at zero). `mesh`/`geo` are
/// the ones the state was built from; `numElements` is `mesh`'s element
/// count (std::invalid_argument otherwise).
///
/// `f` is called concurrently from OpenMP threads, once per (element,
/// quadrature point, lane): it must be thread-safe and return finite
/// values. A callback that throws a std::exception, or returns NaN/Inf,
/// makes this throw std::runtime_error naming the lowest failing global
/// element id (and, for a non-finite value, the lane and quantity index).
/// Setup runs in the caller's floating-point mode.
template <typename Real, int W>
void projectInitialCondition(const kernels::AderKernels<Real, W>& kernels,
                             const mesh::TetMesh& mesh,
                             const std::vector<mesh::ElementGeometry>& geo,
                             const InitialConditionFn& f, SolverState<Real, W>& state,
                             idx_t numElements);

/// Declares (`Extern` = extern) or instantiates (`Extern` empty)
/// `projectInitialCondition` for one engine type.
#define NGLTS_PROJECT_INITIAL_CONDITION(Real, W, Extern)                      \
  Extern template void projectInitialCondition(                              \
      const kernels::AderKernels<Real, W>&, const mesh::TetMesh&,            \
      const std::vector<mesh::ElementGeometry>&, const InitialConditionFn&,  \
      SolverState<Real, W>&, idx_t);

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, extern, SeismoHook)
NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_PROJECT_INITIAL_CONDITION, extern)

} // namespace nglts::solver
