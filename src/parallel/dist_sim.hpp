#pragma once
// The solver engine: the clustered LTS schemes on one rank or many (paper
// Sec. V-C) as a thin layer over the layered solver core. The mesh is
// partitioned; the engine keeps the one global copy of mesh, geometry and
// materials, and every rank owns a `SolverState` arena built straight from
// it (owned elements cluster-contiguous, ids for the halo — the remote
// face-neighbors — after the owned ranges) and runs the same flattened LTS
// schedule through a `StepExecutor`, whose one neighbor-data rule reads
// owned faces from the arena and cross-rank faces from the rank's ghost
// slots (`solver::HaloGhosts`), filled here from the message-passing layer
// between schedule ops. Sources, receivers, `dofs` and `sample` speak
// global element ids on every rank count. All three time schemes (GTS, the
// next-generation three-buffer scheme, the buffer+derivative baseline of
// [15]) and fused ensembles W > 1 run through it. The single-rank run
// (`solver::Simulation`, simulation.hpp) is the same class over an
// all-zero partition: one rank, no halo, no messages.
//
// Messages per cross-boundary face and producer step (next-gen / GTS;
// payloads are raw 9 x B buffers or, with `compressFaces`, face-local 9 x F
// projections computed sender-side):
//   consumer in equal cluster   : P(B1)            every producer step,
//   consumer in larger cluster  : P(B3)            after odd producer steps,
//   consumer in smaller cluster : P(B2), P(B1-B2)  one combined message per
//                                                  producer step (serves the
//                                                  consumer's two sub-steps).
// The baseline scheme ships its trimmed elastic derivative stack to equal-
// and smaller-cluster consumers and raw B3 to larger ones (compression does
// not apply — consumers re-integrate the stack before the flux product).
// FIFO per (src, dst, tag) channel preserves consumption order; the tag is
// the producer's global element id * 4 + face.
//
// Three transports drive the same protocol (`DistConfig::transport`): with
// SeqComm the ranks execute each schedule op in deterministic lockstep on
// one thread; with ThreadComm each rank runs on its own std::thread and
// receives block; with MpiComm each rank is its own OS process under
// mpirun — only the local rank's engine is built and receivers are shipped
// to rank 0 via `gatherReceivers()`. In every mode each rank's
// `StepExecutor` additionally threads its element loops over
// `SimConfig::numThreads` OpenMP threads (the hybrid `--ranks x --threads`
// layout — rank std::threads are OpenMP initial threads, so the teams nest
// without configuration). All combinations are bitwise-reproducible and
// bitwise-identical to the single-rank run: per-element updates are
// order-deterministic regardless of threading, and every cross-rank payload
// carries exactly the values a single-rank run reads from its arena.
//
// Every rank hides the exchange behind interior compute: the local phase
// runs its halo-boundary producers first so their payloads enter the
// network before the interior bulk computes, and the neighbor phase runs
// interior consumers first so the exchange is in flight during compute and
// only the boundary sub-range waits on arrivals (each cluster's arena range
// is laid out interior | halo boundary, so both halves are contiguous
// ranges — SolverState::haloBoundaryBegin). Element updates within one
// schedule op are independent, so the split is bitwise-identical to one
// full-range pass over the op (see stepOp). Without a halo the boundary
// sub-range is empty and costs nothing.
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "kernels/ader_kernels.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "parallel/comm.hpp"
#include "physics/material.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/config.hpp"
#include "solver/seismo_hook.hpp"
#include "solver/state.hpp"

namespace nglts::parallel {

struct DistConfig {
  /// Solver configuration of every rank's engine — scheme, order,
  /// mechanisms, clusters, sparse kernels, kernel backend, threads,
  /// receiver sampling; `precision` is overwritten to match `Real`.
  solver::SimConfig sim;
  bool compressFaces = true; ///< ship 9 x F instead of 9 x B (Sec. V-C)
  /// Halo transport: SeqComm lockstep (the bitwise reference), ThreadComm
  /// rank threads, or real MPI — one process per rank, requires a build
  /// with NGLTS_WITH_MPI=ON and `mpiInit` before construction.
  Transport transport = Transport::kSeq;
  /// Test/bench seam: construct the communicator yourself (the adversarial
  /// ordering stress tests inject delaying/verifying wrappers here). The
  /// run loop still follows `transport`; the factory overrides only which
  /// communicator object serves it.
  CommFactory commFactory;
};

/// `run()` counters: the shared-memory ones (flops summed over the rank
/// engines) plus the exchanged volume (zero on one rank). A distinct type,
/// so callers can overload on it.
struct DistStats : solver::PerfStats {
  std::uint64_t commBytes = 0;
  std::uint64_t messages = 0;
};

template <typename Real, int W>
class DistributedSimulation {
 public:
  using InitFn = solver::InitialConditionFn;

  /// The single-rank engine (`solver::Simulation`): one rank owning every
  /// element (an all-zero partition) over the SeqComm lockstep transport.
  /// The partitioner is never called.
  DistributedSimulation(mesh::TetMesh mesh, std::vector<physics::Material> materials,
                        solver::SimConfig config);

  /// `partition` maps every global element to a rank in [0, max(part) + 1).
  /// Throws `std::invalid_argument` if the partition is empty, has negative
  /// entries, or leaves any rank without elements (an empty rank would
  /// deadlock ThreadComm and break the lockstep schedule).
  DistributedSimulation(mesh::TetMesh mesh, std::vector<physics::Material> materials,
                        std::vector<int_t> partition, DistConfig config);
  ~DistributedSimulation();

  /// Every rank's executor holds a pointer to its source/receiver hook; the
  /// engine is created in place (guaranteed copy elision covers factory
  /// returns).
  DistributedSimulation(const DistributedSimulation&) = delete;
  DistributedSimulation& operator=(const DistributedSimulation&) = delete;

  const DistConfig& config() const { return cfg_; }
  /// The caller's mesh (global external element order).
  const mesh::TetMesh& meshRef() const { return mesh_; }
  const lts::Clustering& clustering() const { return clustering_; }
  const kernels::AderKernels<Real, W>& kernels() const { return *kernels_; }
  double cycleDt() const { return clustering_.clusterDt.back(); }
  int_t ranks() const { return numRanks_; }
  /// The transport driving the run (`DistConfig::transport`).
  Transport transport() const { return cfg_.transport; }
  /// The one rank this process executes under MPI, or -1 when every rank
  /// runs in-process (SeqComm/ThreadComm).
  int_t localRank() const { return localRank_; }
  /// Whether rank `r`'s engine lives in this process (always true
  /// in-process; exactly one rank under MPI).
  bool ownsRank(int_t r) const { return ranks_[r] != nullptr; }

  void setInitialCondition(const InitFn& f);

  /// Register a point source on the owning rank (located on the global
  /// mesh); `laneScale` (size W, defaults to all-1) modulates the amplitude
  /// per fused lane — the paper's "ensembles of forward simulations" differ
  /// in their sources. Throws `std::invalid_argument` on a size mismatch.
  void addPointSource(const seismo::PointSource& src, std::vector<double> laneScale = {});

  /// Register a receiver on the owning rank; returns its global index or
  /// -1 if the point lies outside the mesh. Under MPI every process
  /// registers the receiver (the located element and index assignment are
  /// deterministic); only the owning process samples it.
  idx_t addReceiver(const std::array<double, 3>& position);
  /// Bounds-checked receiver access; throws `std::out_of_range`. Under MPI
  /// a remote rank's receiver is only available on rank 0 after
  /// `gatherReceivers()` (throws `std::runtime_error` otherwise).
  const seismo::Receiver& receiver(idx_t i) const;
  idx_t numReceivers() const { return static_cast<idx_t>(receiverHome_.size()); }

  /// Ship every remote rank's receiver traces to rank 0 so its CSV/output
  /// path works transport-agnostically. Call on all processes after
  /// `run()`; a no-op for the in-process transports.
  void gatherReceivers();

  /// Advance by full LTS cycles until at least `endTime` is covered.
  /// Collective under MPI (all processes call it together); the returned
  /// stats are globally reduced on every rank.
  DistStats run(double endTime) { return runCycles(cyclesFor(endTime)); }
  /// Number of full LTS cycles `run(endTime)` executes.
  std::uint64_t cyclesFor(double endTime) const;
  /// Advance by exactly `cycles` full LTS cycles — the checkpoint driver's
  /// entry point (batch/checkpoint.*): snapshots are taken at cycle
  /// boundaries, and `runCycles(a); runCycles(b)` is bitwise-identical to
  /// `runCycles(a + b)` (step counters persist across calls).
  DistStats runCycles(std::uint64_t cycles);

  // -- checkpoint/restart surface (batch/checkpoint.*) ---------------------
  // At a cycle boundary the complete time-loop state is the DOFs (`dofs`,
  // by global element id), the cycle count and the receiver traces: every
  // local phase recomputes B1/B2/B3 and the baseline derivative stack before
  // anything reads them. A snapshot therefore never sees the arena layout.
  /// Put every rank at the boundary after `cycles` full LTS cycles (the
  /// step counters a run of `runCycles(cycles)` from construction leaves
  /// behind). Call after restoring the DOFs and traces.
  void resumeAtCycle(std::uint64_t cycles);
  /// Mutable receiver access for snapshot trace restore; same bounds
  /// contract as `receiver()`, the receiver must live in this process.
  seismo::Receiver& receiverMut(idx_t i);

  /// Rank `rank`'s memory arena (cluster-contiguous internal layout, id
  /// mapping to the caller's global element ids), read by the layout tests.
  /// Throws like `dofs` for a rank of another process.
  const solver::SolverState<Real, W>& state(int_t rank = 0) const;
  /// Operator memory (`SolverState::operatorBytes`) summed over every rank.
  /// Collective under MPI.
  solver::OperatorBytes operatorBytes() const;

  /// DOF access by global external element id (reads the owning rank's
  /// arena). Throws `std::out_of_range` for an id outside the mesh and,
  /// under MPI, `std::runtime_error` for remote elements.
  const Real* dofs(idx_t element) const;
  Real* dofs(idx_t element);

  /// Pointwise solution sample (elastic quantities) for verification.
  /// Throws `std::out_of_range` for a bad element id or a lane outside
  /// [0, W).
  std::array<double, kElasticVars> sample(idx_t element, const std::array<double, 3>& xi,
                                          int_t lane = 0) const;

  /// Total bytes a run would ship per cycle for the configured scheme if
  /// the mesh were cut along `partition` (Sec. V-C accounting; computed
  /// analytically, pinned by `PaperSecVC`). `partition` is indexed
  /// by global external element id; throws `std::invalid_argument` on a size
  /// mismatch.
  std::uint64_t cycleCommBytes(const std::vector<int_t>& partition, bool faceLocal) const;

 private:
  struct Rank;

  void init();
  void buildRank(int_t r);
  void stepOp(Rank& rank, const lts::ScheduleOp& op);
  void packAndSend(Rank& rank, int_t cluster);
  void receiveHalo(Rank& rank, int_t cluster);
  Rank& ownedRank(int_t r) const;

  DistConfig cfg_;
  int_t localRank_ = -1; ///< -1: all ranks in-process; else the MPI rank
  mesh::TetMesh mesh_;                     ///< global external order
  std::vector<physics::Material> materials_; ///< global external order
  std::vector<int_t> part_;
  int_t numRanks_ = 1;
  std::vector<mesh::ElementGeometry> geo_; ///< global external order
  lts::Clustering clustering_;             ///< global external order
  std::vector<lts::ScheduleOp> schedule_;
  std::unique_ptr<kernels::AderKernels<Real, W>> kernels_;

  std::unique_ptr<Communicator> comm_;
  std::vector<std::unique_ptr<Rank>> ranks_; ///< indexed by rank id; under MPI
                                             ///< only the local slot is built
  std::vector<std::pair<int_t, idx_t>> receiverHome_; ///< global idx -> (rank, local idx)
  std::vector<idx_t> rankReceiverCount_; ///< receivers registered per rank
  std::map<idx_t, seismo::Receiver> gathered_; ///< rank 0: remote traces
};

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, extern, DistributedSimulation)

} // namespace nglts::parallel
