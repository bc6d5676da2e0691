#include "solver/state.hpp"

#include "kernels/kernel_setup.hpp"
#include "solver/threading.hpp"

namespace nglts::solver {

template <typename Real, int W>
SolverState<Real, W>::SolverState(const mesh::TetMesh& mesh,
                                  const std::vector<physics::Material>& materials,
                                  const std::vector<mesh::ElementGeometry>& geo,
                                  const lts::Clustering& clustering,
                                  const kernels::AderKernels<Real, W>& kernels,
                                  const SimConfig& cfg, const std::vector<int_t>& part,
                                  int_t rank) {
  reorder_ = partition::buildClusterReordering(mesh, clustering.cluster, part, rank);
  mesh_ = partition::applyReordering(mesh, reorder_);
  const idx_t owned = numOwned();
  numClusters_ = clustering.numClusters;
  cluster_.resize(numElements());
  for (idx_t el = 0; el < numElements(); ++el) cluster_[el] = clustering.cluster[toExternal(el)];
  // Cluster ranges span the owned prefix only; halo elements sit after.
  clusterOffsets_ = partition::clusterRanges({cluster_.begin(), cluster_.begin() + owned},
                                             numClusters_);
  // The reordering put each cluster's halo-boundary elements last.
  haloBoundaryBegin_.resize(numClusters_);
  for (int_t c = 0; c < numClusters_; ++c) {
    idx_t b = clusterEnd(c);
    while (b > clusterBegin(c) && partition::hasHaloFace(mesh, toExternal(b - 1), part, rank))
      --b;
    haloBoundaryBegin_[c] = b;
  }

  // Operator data only for the owned prefix: halo elements are never
  // stepped and the neighbor update reads the *consuming* element's flux
  // solvers. Built from the caller's mesh at the global id, so every rank
  // assembles exactly the operators a single-rank run would.
  operators_ = kernels::buildElementData<Real>(
      mesh, geo, materials, {reorder_.oldId.begin(), reorder_.oldId.begin() + owned},
      cfg.mechanisms);

  elSize_ = kernels.dofsPerElement();
  bufSize_ = kernels.elasticDofsPerElement();
  stackSize_ = static_cast<std::size_t>(kernels.order()) * bufSize_;
  useB2_ = cfg.scheme == TimeScheme::kLtsNextGen && clustering.numClusters > 1;
  useB3_ = clustering.numClusters > 1; // both LTS schemes accumulate a window buffer
  const bool useStack = cfg.scheme == TimeScheme::kLtsBaseline;

  // B2 is read only by a smaller-cluster neighbor (B2 and B1 - B2 serve its
  // two half-window steps), B3 only by a larger-cluster one (the window
  // accumulator). Halo neighbors count: their cluster is the global one.
  b2Slot_.assign(owned, -1);
  b3Slot_.assign(owned, -1);
  idx_t numB2 = 0, numB3 = 0;
  for (idx_t el = 0; el < owned; ++el) {
    bool smaller = false, larger = false;
    for (const mesh::FaceInfo& fi : mesh_.faces[el]) {
      if (fi.neighbor < 0) continue;
      smaller = smaller || cluster_[fi.neighbor] < cluster_[el];
      larger = larger || cluster_[fi.neighbor] > cluster_[el];
    }
    if (useB2_ && smaller) b2Slot_[el] = numB2++;
    if (useB3_ && larger) b3Slot_[el] = numB3++;
  }

  // resize() leaves arena_vector pages untouched (FirstTouchAllocator); the
  // zero-fill below is the NUMA first-touch pass. Each cluster range is cut
  // into the *same* cfg.numThreads static chunks the StepExecutor's element
  // loops use (solver/threading.hpp), so every page is first touched — and
  // therefore placed — on the memory node of the thread that later computes
  // its elements. The side-arena slots ascend with the internal id, so each
  // chunk zeroes a contiguous run of them too. Halo elements get no slot:
  // the engine serves every halo face from its ghost buffers.
  q_.resize(owned * elSize_);
  b1_.resize(owned * bufSize_);
  b2_.resize(numB2 * bufSize_);
  b3_.resize(numB3 * bufSize_);
  if (useStack) derivStack_.resize(owned * stackSize_);

  // Invalid thread counts are rejected by validateSimConfig / the executor;
  // clamp here so a bare SolverState (tests) never divides by zero.
  const int_t nt = cfg.numThreads < 1 ? 1 : cfg.numThreads;
  auto zeroElement = [&](idx_t el) {
    linalg::zeroBlock(q(el), elSize_);
    linalg::zeroBlock(b1(el), bufSize_);
    if (Real* p = b2(el)) linalg::zeroBlock(p, bufSize_);
    if (Real* p = b3(el)) linalg::zeroBlock(p, bufSize_);
    if (useStack) linalg::zeroBlock(derivStack(el), stackSize_);
  };
  auto zeroRange = [&](idx_t begin, idx_t end) {
    forEachChunk(nt, [&](int_t t) {
      const ChunkRange c = staticChunk(begin, end, nt, t);
      for (idx_t el = c.begin; el < c.end; ++el) zeroElement(el);
    });
  };
  for (int_t c = 0; c < numClusters_; ++c) zeroRange(clusterBegin(c), clusterEnd(c));
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, , SolverState)

} // namespace nglts::solver
