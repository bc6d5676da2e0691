// DistributedSimulation: the solver engine on one rank or many (see
// dist_sim.hpp). This file owns the glue the solver core does not: global
// setup, per-rank construction from the global mesh, the send/receive protocol
// packing (raw 9 x B vs face-local 9 x F, trimmed derivative stacks for the
// baseline scheme) interleaved between schedule ops, and the run drivers — SeqComm
// lockstep, ThreadComm per-rank threads, and the MpiComm one-process-per-
// rank mode where only the local rank's engine is built. The element
// stepping itself is the shared `StepExecutor` — there is no duplicated
// update loop here; stepOp only splits each op's element range into its
// interior and halo-boundary sub-ranges around the exchange.
#include "parallel/dist_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/float_env.hpp"
#include "solver/executor.hpp"
#include "solver/setup.hpp"
#include "solver/state.hpp"

namespace nglts::parallel {

namespace {

template <typename Real>
void appendReals(std::vector<std::uint8_t>& out, const Real* p, std::size_t n) {
  const std::size_t off = out.size();
  out.resize(off + n * sizeof(Real));
  std::memcpy(out.data() + off, p, n * sizeof(Real));
}

template <typename Real>
void readReals(const std::vector<std::uint8_t>& raw, std::size_t& off, Real* p,
               std::size_t n) {
  if (off + n * sizeof(Real) > raw.size())
    throw std::runtime_error("DistributedSimulation: truncated message payload");
  std::memcpy(p, raw.data() + off, n * sizeof(Real));
  off += n * sizeof(Real);
}

void appendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  appendReals(out, &v, 1);
}

std::uint64_t readU64(const std::vector<std::uint8_t>& raw, std::size_t& off) {
  std::uint64_t v = 0;
  readReals(raw, off, &v, 1);
  return v;
}

/// Throws `std::out_of_range` naming `what` unless 0 <= i < n.
void checkIndex(const char* what, idx_t i, idx_t n) {
  if (i < 0 || i >= n)
    throw std::out_of_range(std::string(what) + " " + std::to_string(i) +
                            " out of range (have " + std::to_string(n) + ")");
}

} // namespace

/// Per-rank engine: arena, hook, executor, ghost slots and the per-cluster
/// send/receive lists derived from the cross-rank faces.
template <typename Real, int W>
struct DistributedSimulation<Real, W>::Rank {
  int_t id = 0;
  std::unique_ptr<solver::SolverState<Real, W>> state;
  std::unique_ptr<solver::SeismoHook<Real, W>> hook;
  std::unique_ptr<solver::StepExecutor<Real, W>> exec;
  solver::HaloGhosts<Real> ghosts;

  struct SendOp {
    idx_t el = 0;       ///< internal id of the owned producer element
    int_t face = 0;     ///< producer's local face
    int_t remoteCluster = 0; ///< time cluster of the remote consumer
    int_t dstRank = 0;
    int_t recvPerm = 0; ///< consumer-side orientation (sender compression)
    std::int64_t tag = 0;
  };
  std::vector<std::vector<SendOp>> sendByCluster;
  std::vector<std::vector<idx_t>> recvByCluster; ///< ghost slot ids

  // Serial packing staging (one producer face at a time).
  aligned_vector<Real> combo, face0, face1;
};

template <typename Real, int W>
DistributedSimulation<Real, W>::DistributedSimulation(mesh::TetMesh mesh,
                                                      std::vector<physics::Material> materials,
                                                      solver::SimConfig config)
    : mesh_(std::move(mesh)),
      materials_(std::move(materials)),
      part_(static_cast<std::size_t>(mesh_.numElements()), 0) {
  cfg_.sim = std::move(config);
  init();
}

template <typename Real, int W>
DistributedSimulation<Real, W>::DistributedSimulation(mesh::TetMesh mesh,
                                                      std::vector<physics::Material> materials,
                                                      std::vector<int_t> partition,
                                                      DistConfig config)
    : cfg_(std::move(config)),
      mesh_(std::move(mesh)),
      materials_(std::move(materials)),
      part_(std::move(partition)) {
  init();
}

// Global setup — geometry, CFL steps, clustering, schedule and kernels are
// resolved once on the whole mesh, so every rank steps the exact same
// clusters with the exact same operators whatever the partition (the
// invariant behind the bitwise equivalence across rank counts). Every rank
// is built from, and its hook binds against, this one global copy of mesh,
// geometry and materials.
template <typename Real, int W>
void DistributedSimulation<Real, W>::init() {
  solver::SimConfig& sim = cfg_.sim;
  sim.precision = solver::precisionOf<Real>();
  solver::validateSimConfig(sim);
  if (mesh_.faces.empty())
    throw std::runtime_error("DistributedSimulation: mesh connectivity not built");
  if (static_cast<idx_t>(materials_.size()) != mesh_.numElements())
    throw std::runtime_error("DistributedSimulation: one material per element required");

  geo_ = mesh::computeGeometry(mesh_);
  const std::vector<double> dtCfl = lts::cflTimeSteps(geo_, materials_, sim.order, sim.cfl);
  clustering_ = solver::resolveClustering(mesh_, dtCfl, sim);
  schedule_ = lts::buildSchedule(clustering_.numClusters);
  lts::checkSchedule(schedule_, clustering_.numClusters);
  kernels_ = std::make_unique<kernels::AderKernels<Real, W>>(
      sim.order, sim.mechanisms, sim.sparseKernels,
      solver::resolveOmega(materials_, sim.mechanisms), sim.kernelBackend);

  if (static_cast<idx_t>(part_.size()) != mesh_.numElements())
    throw std::invalid_argument("DistributedSimulation: partition size != element count");

  numRanks_ = 0;
  for (int_t p : part_) {
    if (p < 0) throw std::invalid_argument("DistributedSimulation: negative rank in partition");
    numRanks_ = std::max(numRanks_, p + 1);
  }
  if (numRanks_ < 1) throw std::invalid_argument("DistributedSimulation: empty partition");
  // Every rank in [0, numRanks_) must own at least one element: an empty
  // rank would break the lockstep schedule and deadlock ThreadComm.
  std::vector<idx_t> ownedCount(numRanks_, 0);
  for (int_t p : part_) ++ownedCount[p];
  for (int_t r = 0; r < numRanks_; ++r)
    if (ownedCount[r] == 0)
      throw std::invalid_argument("DistributedSimulation: rank " + std::to_string(r) +
                                  " of " + std::to_string(numRanks_) +
                                  " owns no elements (every rank needs work)");

  if (cfg_.commFactory) {
    comm_ = cfg_.commFactory(numRanks_);
    if (!comm_) throw std::invalid_argument("DistributedSimulation: commFactory returned null");
  } else {
    switch (cfg_.transport) {
      case Transport::kSeq: comm_ = std::make_unique<SeqComm>(numRanks_); break;
      case Transport::kThread: comm_ = std::make_unique<ThreadComm>(numRanks_); break;
      case Transport::kMpi: comm_ = makeMpiComm(numRanks_); break;
    }
  }

  // In-process communicators serve every rank (selfRank -1); MpiComm speaks
  // for exactly one, and only that rank's engine is built in this process.
  localRank_ = comm_->selfRank();
  rankReceiverCount_.assign(numRanks_, 0);
  ranks_.resize(numRanks_);
  for (int_t r = 0; r < numRanks_; ++r)
    if (localRank_ < 0 || r == localRank_) buildRank(r);
}

template <typename Real, int W>
DistributedSimulation<Real, W>::~DistributedSimulation() = default;

template <typename Real, int W>
void DistributedSimulation<Real, W>::buildRank(int_t r) {
  auto rank = std::make_unique<Rank>();
  rank->id = r;
  const kernels::AderKernels<Real, W>& kernels = *kernels_;

  rank->state = std::make_unique<solver::SolverState<Real, W>>(
      mesh_, materials_, geo_, clustering_, kernels, cfg_.sim, part_, r);
  const double recDt =
      cfg_.sim.receiverSampleDt > 0.0 ? cfg_.sim.receiverSampleDt : clustering_.dtMin;
  rank->hook = std::make_unique<solver::SeismoHook<Real, W>>(mesh_, geo_, materials_, kernels,
                                                             *rank->state, recDt);

  // Ghost slots + send/receive lists from the cross-rank faces. One scan of
  // the owned elements in ascending global id covers each cross face once
  // in both roles: the owned element consumes the remote buffers (receive
  // slot) and produces for the remote consumer (send op) through the same
  // geometric face.
  const solver::SolverState<Real, W>& state = *rank->state;
  const int_t nc = clustering_.numClusters;
  const bool baseline = cfg_.sim.scheme == solver::TimeScheme::kLtsBaseline;
  const std::size_t bufN = kernels.elasticDofsPerElement();
  const std::size_t faceN = kernels.faceDataSize();
  const std::size_t stackN = static_cast<std::size_t>(kernels.order()) * bufN;
  const std::size_t dataN = cfg_.compressFaces && !baseline ? faceN : bufN;

  rank->sendByCluster.assign(nc, {});
  rank->recvByCluster.assign(nc, {});
  rank->ghosts.slotOf.assign(static_cast<std::size_t>(state.numHalo()) * 4, -1);
  for (idx_t el = 0; el < mesh_.numElements(); ++el) {
    if (part_[el] != r) continue;
    const int_t cMe = clustering_.cluster[el];
    for (int_t f = 0; f < 4; ++f) {
      const mesh::FaceInfo& fi = mesh_.faces[el][f];
      if (fi.neighbor < 0 || part_[fi.neighbor] == r) continue; // boundary or same-rank face
      const int_t cNb = clustering_.cluster[fi.neighbor];

      // Receive slot: the owned element consumes the remote element's data.
      solver::GhostSlot<Real> slot;
      slot.remoteCluster = cNb;
      slot.srcRank = part_[fi.neighbor];
      slot.tag = fi.neighbor * 4 + fi.neighborFace;
      if (baseline) {
        slot.ds0.assign(cNb < cMe ? bufN : stackN, Real(0));
      } else {
        slot.ds0.assign(dataN, Real(0));
        if (cNb > cMe) slot.ds1.assign(dataN, Real(0));
      }
      const idx_t haloInternal = state.toInternal(fi.neighbor);
      rank->ghosts.slotOf[(haloInternal - state.numOwned()) * 4 + fi.neighborFace] =
          static_cast<idx_t>(rank->ghosts.slots.size());
      rank->recvByCluster[cMe].push_back(static_cast<idx_t>(rank->ghosts.slots.size()));
      rank->ghosts.slots.push_back(std::move(slot));

      // Send op: the owned element produces for the remote consumer.
      typename Rank::SendOp op;
      op.el = state.toInternal(el);
      op.face = f;
      op.remoteCluster = cNb;
      op.dstRank = part_[fi.neighbor];
      op.recvPerm = mesh_.faces[fi.neighbor][fi.neighborFace].perm;
      op.tag = el * 4 + f;
      // The op must read buffers the producer keeps: B3 for a larger
      // consumer, B2 for a smaller next-gen one (B1 and the baseline's
      // derivative stack exist for every owned element).
      if ((cNb > cMe && !state.b3(op.el)) || (cNb < cMe && !baseline && !state.b2(op.el)))
        throw std::logic_error("DistributedSimulation: rank " + std::to_string(r) +
                               " sends element " + std::to_string(el) + " face " +
                               std::to_string(f) + " from a buffer its arena does not keep");
      rank->sendByCluster[cMe].push_back(op);
    }
  }
  rank->combo.assign(bufN, Real(0));
  rank->face0.assign(faceN, Real(0));
  rank->face1.assign(faceN, Real(0));
  // The baseline scheme always ships raw data: its equal/larger-neighbor
  // payload is a derivative stack the consumer re-integrates first.
  rank->ghosts.faceLocal = cfg_.compressFaces && !baseline;

  rank->exec = std::make_unique<solver::StepExecutor<Real, W>>(
      cfg_.sim, kernels, *rank->state, clustering_, schedule_, rank->hook.get(), &rank->ghosts);
  ranks_[r] = std::move(rank);
}

template <typename Real, int W>
typename DistributedSimulation<Real, W>::Rank& DistributedSimulation<Real, W>::ownedRank(
    int_t r) const {
  if (r < 0 || r >= numRanks_)
    throw std::out_of_range("DistributedSimulation: rank " + std::to_string(r) +
                            " out of range (have " + std::to_string(numRanks_) + ")");
  if (!ranks_[r])
    throw std::runtime_error("DistributedSimulation: rank " + std::to_string(r) +
                             " lives in another MPI process (this is rank " +
                             std::to_string(localRank_) + ")");
  return *ranks_[r];
}

template <typename Real, int W>
void DistributedSimulation<Real, W>::setInitialCondition(const InitFn& f) {
  for (auto& rank : ranks_)
    if (rank)
      solver::projectInitialCondition(*kernels_, mesh_, geo_, f, *rank->state,
                                      mesh_.numElements());
}

template <typename Real, int W>
void DistributedSimulation<Real, W>::addPointSource(const seismo::PointSource& src,
                                                    std::vector<double> laneScale) {
  const idx_t el = mesh::locatePoint(mesh_, geo_, src.position);
  if (el < 0) throw std::runtime_error("addPointSource: source outside the mesh");
  if (!ownsRank(part_[el])) return; // another MPI process owns this element
  Rank& rank = *ranks_[part_[el]];
  rank.hook->addPointSource(el, src, std::move(laneScale));
}

template <typename Real, int W>
idx_t DistributedSimulation<Real, W>::addReceiver(const std::array<double, 3>& position) {
  const idx_t el = mesh::locatePoint(mesh_, geo_, position);
  if (el < 0) return -1;
  // Local index assignment must be deterministic across MPI processes (the
  // owning one binds the receiver; the others only record where it lives),
  // so it is the per-rank registration count, which the hook's own index
  // matches because receivers are only ever added through this path.
  const int_t home = part_[el];
  const idx_t local = rankReceiverCount_[home]++;
  if (ownsRank(home)) {
    Rank& rank = *ranks_[home];
    const idx_t bound = rank.hook->addReceiver(el, position);
    if (bound != local)
      throw std::logic_error("addReceiver: rank-local index drifted from the global count");
  }
  receiverHome_.emplace_back(home, local);
  return static_cast<idx_t>(receiverHome_.size()) - 1;
}

template <typename Real, int W>
const seismo::Receiver& DistributedSimulation<Real, W>::receiver(idx_t i) const {
  checkIndex("receiver: index", i, numReceivers());
  const auto& [rank, local] = receiverHome_[i];
  if (ownsRank(rank)) return ranks_[rank]->hook->receiver(local);
  auto it = gathered_.find(i);
  if (it == gathered_.end())
    throw std::runtime_error("receiver: index " + std::to_string(i) + " lives on MPI rank " +
                             std::to_string(rank) +
                             " — call gatherReceivers() after run() and read it on rank 0");
  return it->second;
}

// Receiver traces cross process boundaries exactly once, after the run, on
// reserved negative tags (the halo protocol only uses tags >= 0). Payload:
// position, lane count, then per lane the sample count, times, and the
// 9-quantity sample rows.
template <typename Real, int W>
void DistributedSimulation<Real, W>::gatherReceivers() {
  if (localRank_ < 0) return; // in-process: every trace is already local
  for (idx_t i = 0; i < static_cast<idx_t>(receiverHome_.size()); ++i) {
    const auto& [home, local] = receiverHome_[i];
    if (home == 0) continue; // already on the root
    const std::int64_t tag = -(static_cast<std::int64_t>(i) + 1);
    if (home == localRank_) {
      const seismo::Receiver& rec = ranks_[home]->hook->receiver(local);
      std::vector<std::uint8_t> payload;
      appendReals(payload, rec.position.data(), 3);
      appendU64(payload, rec.traces.size());
      for (const seismo::Seismogram& s : rec.traces) {
        appendU64(payload, s.size());
        appendReals(payload, s.times.data(), s.size());
        for (const auto& row : s.values) appendReals(payload, row.data(), kElasticVars);
      }
      comm_->send(localRank_, 0, tag, std::move(payload));
    } else if (localRank_ == 0) {
      const std::vector<std::uint8_t> raw = comm_->recv(0, home, tag);
      std::size_t off = 0;
      seismo::Receiver rec;
      readReals(raw, off, rec.position.data(), 3);
      rec.traces.resize(readU64(raw, off));
      for (seismo::Seismogram& s : rec.traces) {
        const std::uint64_t n = readU64(raw, off);
        s.times.resize(n);
        readReals(raw, off, s.times.data(), n);
        s.values.resize(n);
        for (auto& row : s.values) readReals(raw, off, row.data(), kElasticVars);
      }
      if (off != raw.size())
        throw std::runtime_error("gatherReceivers: unexpected trace payload size");
      gathered_[i] = std::move(rec);
    }
  }
}

template <typename Real, int W>
seismo::Receiver& DistributedSimulation<Real, W>::receiverMut(idx_t i) {
  checkIndex("receiverMut: index", i, numReceivers());
  const auto& [rank, local] = receiverHome_[i];
  return ownedRank(rank).hook->mutableReceiver(local);
}

template <typename Real, int W>
const solver::SolverState<Real, W>& DistributedSimulation<Real, W>::state(int_t rank) const {
  return *ownedRank(rank).state;
}

template <typename Real, int W>
solver::OperatorBytes DistributedSimulation<Real, W>::operatorBytes() const {
  solver::OperatorBytes sum;
  for (const auto& rank : ranks_)
    if (rank) {
      const solver::OperatorBytes b = rank->state->operatorBytes();
      sum.elastic += b.elastic;
      sum.anelastic += b.anelastic;
    }
  return {comm_->allreduceSum(sum.elastic), comm_->allreduceSum(sum.anelastic)};
}

template <typename Real, int W>
void DistributedSimulation<Real, W>::resumeAtCycle(std::uint64_t cycles) {
  for (auto& rank : ranks_)
    if (rank) rank->exec->resumeAtCycle(cycles);
}

template <typename Real, int W>
const Real* DistributedSimulation<Real, W>::dofs(idx_t element) const {
  checkIndex("dofs: element", element, mesh_.numElements());
  const Rank& rank = ownedRank(part_[element]);
  return rank.state->q(rank.state->toInternal(element));
}

template <typename Real, int W>
Real* DistributedSimulation<Real, W>::dofs(idx_t element) {
  return const_cast<Real*>(std::as_const(*this).dofs(element));
}

template <typename Real, int W>
std::array<double, kElasticVars> DistributedSimulation<Real, W>::sample(
    idx_t element, const std::array<double, 3>& xi, int_t lane) const {
  checkIndex("sample: lane", lane, W);
  const Real* q = dofs(element);
  const auto phi = kernels_->globalMatrices().tet->evalAll(xi);
  const int_t nb = kernels_->numBasis();
  std::array<double, kElasticVars> out{};
  for (int_t v = 0; v < kElasticVars; ++v)
    for (int_t b = 0; b < nb; ++b)
      out[v] += static_cast<double>(q[(static_cast<std::size_t>(v) * nb + b) * W + lane]) * phi[b];
  return out;
}

template <typename Real, int W>
std::uint64_t DistributedSimulation<Real, W>::cycleCommBytes(const std::vector<int_t>& partition,
                                                             bool faceLocal) const {
  // Analytic per-cycle byte volume if the mesh were cut along `partition`:
  // for every face crossing a cut, count the datasets the owning side sends
  // (Sec. V-C; tests/test_paper.cpp pins the LOH.3 values, listed in
  // docs/ARCHITECTURE.md "Reproducing paper results"). External ids — the
  // accounting never touches an arena.
  if (static_cast<idx_t>(partition.size()) != mesh_.numElements())
    throw std::invalid_argument("cycleCommBytes: partition size != element count");
  const solver::SimConfig& sim = cfg_.sim;
  const int_t nc = clustering_.numClusters;
  const std::size_t realBytes = sizeof(Real);
  const std::size_t fullBuf = kernels_->elasticDofsPerElement() * realBytes;
  const std::size_t faceBuf = kernels_->faceDataSize() * realBytes;
  // Baseline derivative payload: truncated blocks for elastic runs, full
  // otherwise (the paper's 1,575-value argument).
  std::size_t derivPayload = 0;
  for (int_t d = 0; d < sim.order; ++d) {
    const int_t wid = sim.mechanisms > 0 ? kernels_->numBasis() : numBasis3d(sim.order - d);
    derivPayload += static_cast<std::size_t>(kElasticVars) * wid * W * realBytes;
  }

  std::uint64_t bytes = 0;
  for (idx_t el = 0; el < mesh_.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      const mesh::FaceInfo& fi = mesh_.faces[el][f];
      if (fi.neighbor < 0 || partition[el] == partition[fi.neighbor]) continue;
      const int_t cMe = clustering_.cluster[el];
      const int_t cNb = clustering_.cluster[fi.neighbor];
      const idx_t mySteps = lts::stepsPerCycle(nc, cMe);
      if (sim.scheme == solver::TimeScheme::kLtsBaseline) {
        if (cNb <= cMe)
          bytes += mySteps * derivPayload; // derivatives once per own step
        else
          bytes += mySteps / 2 * fullBuf; // accumulated buffer to larger
      } else {
        const std::size_t payload = faceLocal ? faceBuf : fullBuf;
        if (cNb == cMe)
          bytes += mySteps * payload; // B1 per step
        else if (cNb < cMe)
          bytes += 2 * mySteps * payload; // B2 and B1-B2 per step
        else
          bytes += mySteps / 2 * payload; // B3 once per two steps
      }
    }
  return bytes;
}

template <typename Real, int W>
void DistributedSimulation<Real, W>::packAndSend(Rank& rank, int_t cluster) {
  const idx_t step = rank.exec->clusterStep(cluster);
  const bool baseline = cfg_.sim.scheme == solver::TimeScheme::kLtsBaseline;
  const solver::SolverState<Real, W>& state = *rank.state;
  const kernels::AderKernels<Real, W>& kernels = *kernels_;
  const std::size_t bufN = kernels.elasticDofsPerElement();
  const std::size_t faceN = kernels.faceDataSize();
  const int_t order = kernels.order();
  const int_t nb = kernels.numBasis();
  const bool anel = kernels.mechanisms() > 0;
  const std::size_t nbW = static_cast<std::size_t>(nb) * W;

  for (const typename Rank::SendOp& op : rank.sendByCluster[cluster]) {
    // A larger-cluster consumer reads the B3 window accumulator (or the raw
    // B3 of the baseline scheme), complete only after odd producer steps.
    const bool toLarger = op.remoteCluster > cluster;
    if (toLarger && step % 2 == 0) continue;

    std::vector<std::uint8_t> payload;
    if (baseline) {
      if (toLarger) {
        appendReals(payload, state.b3(op.el), bufN);
      } else {
        // Trimmed derivative stack: elastic runs truncate degree d to the
        // vanishing-block width B(O - d) (the paper's payload accounting);
        // anelastic runs keep full blocks. Lossless — the truncated tails
        // are exact zeros in the producer's stack.
        const Real* stack = state.derivStack(op.el);
        for (int_t d = 0; d < order; ++d) {
          const std::size_t wid = anel ? nb : numBasis3d(order - d);
          for (int_t v = 0; v < kElasticVars; ++v)
            appendReals(payload,
                        stack + static_cast<std::size_t>(d) * bufN + v * nbW, wid * W);
        }
      }
    } else if (op.remoteCluster < cluster) {
      // Smaller-cluster consumer: B2 and B1 - B2 in one combined message
      // (its two sub-steps inside the producer's step).
      const Real* b1 = state.b1(op.el);
      const Real* b2 = state.b2(op.el);
      Real* combo = rank.combo.data();
#pragma omp simd
      for (std::size_t i = 0; i < bufN; ++i) combo[i] = b1[i] - b2[i];
      if (cfg_.compressFaces) {
        kernels.compressBuffer(op.face, op.recvPerm, b2, rank.face0.data());
        kernels.compressBuffer(op.face, op.recvPerm, combo, rank.face1.data());
        appendReals(payload, rank.face0.data(), faceN);
        appendReals(payload, rank.face1.data(), faceN);
      } else {
        appendReals(payload, b2, bufN);
        appendReals(payload, combo, bufN);
      }
    } else {
      // Equal cluster ships B1 every step; a larger consumer ships B3.
      const Real* data = toLarger ? state.b3(op.el) : state.b1(op.el);
      if (cfg_.compressFaces) {
        kernels.compressBuffer(op.face, op.recvPerm, data, rank.face0.data());
        appendReals(payload, rank.face0.data(), faceN);
      } else {
        appendReals(payload, data, bufN);
      }
    }
    comm_->send(rank.id, op.dstRank, op.tag, std::move(payload));
  }
}

template <typename Real, int W>
void DistributedSimulation<Real, W>::receiveHalo(Rank& rank, int_t cluster) {
  const idx_t step = rank.exec->clusterStep(cluster);
  const bool baseline = cfg_.sim.scheme == solver::TimeScheme::kLtsBaseline;
  const kernels::AderKernels<Real, W>& kernels = *kernels_;
  const std::size_t bufN = kernels.elasticDofsPerElement();
  const int_t order = kernels.order();
  const int_t nb = kernels.numBasis();
  const bool anel = kernels.mechanisms() > 0;
  const std::size_t nbW = static_cast<std::size_t>(nb) * W;

  for (idx_t si : rank.recvByCluster[cluster]) {
    solver::GhostSlot<Real>& g = rank.ghosts.slots[si];
    // A larger remote producer sends once per its own step; the odd local
    // sub-step reuses the datasets received on the even one.
    const bool fromLarger = g.remoteCluster > cluster;
    if (fromLarger && step % 2 == 1) continue;

    const std::vector<std::uint8_t> raw = comm_->recv(rank.id, g.srcRank, g.tag);
    std::size_t off = 0;
    if (baseline && g.remoteCluster >= cluster) {
      // Trimmed stack -> full stack layout (padding stays zero from setup).
      for (int_t d = 0; d < order; ++d) {
        const std::size_t wid = anel ? nb : numBasis3d(order - d);
        for (int_t v = 0; v < kElasticVars; ++v)
          readReals(raw, off, g.ds0.data() + static_cast<std::size_t>(d) * bufN + v * nbW,
                    wid * W);
      }
    } else {
      readReals(raw, off, g.ds0.data(), g.ds0.size());
      if (fromLarger) readReals(raw, off, g.ds1.data(), g.ds1.size());
    }
    if (off != raw.size())
      throw std::runtime_error("DistributedSimulation: unexpected message payload size");
  }
}

// The exchange, overlapped with interior compute. Correctness rests on three
// facts: (1) packAndSend reads only the boundary producers' buffers, all
// written by the time the boundary sub-range ran; (2) interior consumers
// read no ghost slot, so they may run before the receives; (3) the
// executor's step counter advances only on the final sub-range call, so the
// sub-step parity seen by packAndSend / receiveHalo / the element kernels is
// that of the op. Send and receive calls keep their per-(src,dst,tag)
// order, so the payload *values* on the wire are exactly those the
// shared-memory run reads — bitwise identity follows.
template <typename Real, int W>
void DistributedSimulation<Real, W>::stepOp(Rank& rank, const lts::ScheduleOp& op) {
  const int_t c = op.cluster;
  const idx_t begin = rank.state->clusterBegin(c);
  const idx_t split = rank.state->haloBoundaryBegin(c);
  const idx_t end = rank.state->clusterEnd(c);
  if (op.kind == lts::PhaseKind::kLocal) {
    // Boundary producers first: their payloads enter the network before the
    // interior bulk computes.
    rank.exec->runOp(op, split, end, false);
    packAndSend(rank, c);
    rank.exec->runOp(op, begin, split, false);
  } else {
    // Interior consumers overlap with the in-flight exchange; only the
    // boundary sub-range waits on what has not yet arrived.
    rank.exec->runOp(op, begin, split, false);
    comm_->pollInbox(rank.id);
    receiveHalo(rank, c);
    rank.exec->runOp(op, split, end, true);
  }
}

template <typename Real, int W>
std::uint64_t DistributedSimulation<Real, W>::cyclesFor(double endTime) const {
  return static_cast<std::uint64_t>(std::ceil(endTime / cycleDt() - 1e-9));
}

template <typename Real, int W>
DistStats DistributedSimulation<Real, W>::runCycles(std::uint64_t cycles) {
  DistStats stats;
  // Per-run deltas of the communicator-owned counters. Under MPI these are
  // process-local and reduced below; in-process they are already global and
  // allreduceSum is the identity.
  const std::uint64_t bytes0 = comm_->bytesSent();
  const std::uint64_t msg0 = comm_->messagesSent();
  for (auto& rank : ranks_)
    if (rank) rank->exec->drainFlops(); // reset counters for this run

  comm_->barrier(); // MPI: don't time another process's setup
  Timer timer;
  // Subnormal flushing for the work between schedule ops (packAndSend's
  // face compression); the executor's element loops enter their own guard
  // on every team thread. Rank std::threads enter theirs below.
  const ScopedFlushDenormals flush;
  if (localRank_ >= 0) {
    // MPI: this process drives exactly one rank; the exchange itself is the
    // cross-process synchronization.
    Rank& rank = *ranks_[localRank_];
    for (std::uint64_t c = 0; c < cycles; ++c)
      for (const lts::ScheduleOp& op : schedule_) stepOp(rank, op);
  } else if (cfg_.transport == Transport::kSeq) {
    // Deterministic lockstep: all ranks execute schedule op i before any
    // rank starts op i+1 — every SeqComm receive then finds its message
    // (the schedule's write-before-read guarantee, applied across ranks).
    for (std::uint64_t c = 0; c < cycles; ++c)
      for (const lts::ScheduleOp& op : schedule_)
        for (auto& rank : ranks_) stepOp(*rank, op);
  } else {
    // One std::thread per rank. Each rank thread is an OpenMP *initial*
    // thread, so the executor's `num_threads(cfg.sim.numThreads)` element
    // loops fork their own team inside it — the hybrid `--ranks x
    // --threads` layout uses numRanks_ * numThreads cores with no nested-
    // parallelism configuration. The communicator itself never runs under
    // OpenMP: sends/receives happen between schedule ops on the rank
    // thread.
    std::vector<std::thread> threads;
    threads.reserve(numRanks_);
    for (auto& rankPtr : ranks_) {
      Rank* rank = rankPtr.get();
      threads.emplace_back([this, rank, cycles] {
        const ScopedFlushDenormals rankFlush;
        for (std::uint64_t c = 0; c < cycles; ++c)
          for (const lts::ScheduleOp& op : schedule_) stepOp(*rank, op);
      });
    }
    for (auto& t : threads) t.join();
  }
  comm_->barrier(); // MPI: every rank finished before anyone reads stats
  stats.seconds = timer.seconds();
  std::uint64_t updatesPerCycle = 0;
  for (int_t c = 0; c < clustering_.numClusters; ++c)
    updatesPerCycle += clustering_.clusterSize[c] * lts::stepsPerCycle(clustering_.numClusters, c);
  stats.cycles = cycles;
  stats.simulatedTime = cycles * cycleDt();
  stats.elementUpdates = cycles * updatesPerCycle;
  std::uint64_t flops = 0;
  for (auto& rank : ranks_)
    if (rank) flops += rank->exec->drainFlops();
  stats.flops = comm_->allreduceSum(flops);
  stats.messages = comm_->allreduceSum(comm_->messagesSent() - msg0);
  stats.commBytes = comm_->allreduceSum(comm_->bytesSent() - bytes0);
  return stats;
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, , DistributedSimulation)

} // namespace nglts::parallel
