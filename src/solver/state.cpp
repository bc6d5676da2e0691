#include "solver/state.hpp"

#include "kernels/kernel_setup.hpp"
#include "solver/threading.hpp"

namespace nglts::solver {

template <typename Real, int W>
SolverState<Real, W>::SolverState(const mesh::TetMesh& externalMesh,
                                  const std::vector<physics::Material>& externalMaterials,
                                  const std::vector<mesh::ElementGeometry>& externalGeo,
                                  const lts::Clustering& clustering,
                                  const kernels::AderKernels<Real, W>& kernels,
                                  const SimConfig& cfg, idx_t numOwned) {
  const idx_t n = externalMesh.numElements();
  numOwned_ = numOwned < 0 ? n : numOwned;
  if (numOwned_ > n) throw std::runtime_error("SolverState: numOwned > numElements");
  reorder_ = partition::buildClusterReordering(externalMesh, clustering.cluster,
                                               /*packNeighbors=*/true, numOwned_);
  mesh_ = partition::applyReordering(externalMesh, reorder_);
  numClusters_ = clustering.numClusters;
  cluster_ = partition::permute(clustering.cluster, reorder_);
  // Cluster ranges span the owned prefix only; halo elements sit after.
  const std::vector<int_t> ownedCluster(cluster_.begin(), cluster_.begin() + numOwned_);
  clusterOffsets_ = partition::clusterRanges(ownedCluster, numClusters_);
  // The reordering put each cluster's halo-boundary elements last.
  haloBoundaryBegin_.resize(numClusters_);
  for (int_t c = 0; c < numClusters_; ++c) {
    idx_t b = clusterEnd(c);
    while (b > clusterBegin(c) && partition::hasHaloFace(mesh_, b - 1, numOwned_)) --b;
    haloBoundaryBegin_[c] = b;
  }

  const std::vector<mesh::ElementGeometry> geo = partition::permute(externalGeo, reorder_);
  const std::vector<physics::Material> mats = partition::permute(externalMaterials, reorder_);
  // Operator data only for the owned prefix: halo elements are never
  // stepped and the neighbor update reads the *consuming* element's flux
  // solvers, so halo entries stay default-constructed.
  elementData_.resize(n);
#pragma omp parallel for schedule(static)
  for (idx_t el = 0; el < numOwned_; ++el)
    elementData_[el] = kernels::buildElementData<Real>(mesh_, geo, mats, el, cfg.mechanisms);

  elSize_ = kernels.dofsPerElement();
  bufSize_ = kernels.elasticDofsPerElement();
  stackSize_ = static_cast<std::size_t>(kernels.order()) * bufSize_;
  useB2_ = cfg.scheme == TimeScheme::kLtsNextGen && clustering.numClusters > 1;
  useB3_ = clustering.numClusters > 1; // both LTS schemes accumulate a window buffer
  const bool useStack = cfg.scheme == TimeScheme::kLtsBaseline;

  // resize() leaves arena_vector pages untouched (FirstTouchAllocator); the
  // zero-fill below is the NUMA first-touch pass. Each cluster range is cut
  // into the *same* cfg.numThreads static chunks the StepExecutor's element
  // loops use (solver/threading.hpp), so every page is first touched — and
  // therefore placed — on the memory node of the thread that later computes
  // its elements.
  q_.resize(n * elSize_);
  b1_.resize(n * bufSize_);
  if (useB2_) b2_.resize(n * bufSize_);
  if (useB3_) b3_.resize(n * bufSize_);
  if (useStack) derivStack_.resize(n * stackSize_);

  // Invalid thread counts are rejected by validateSimConfig / the executor;
  // clamp here so a bare SolverState (tests) never divides by zero.
  const int_t nt = cfg.numThreads < 1 ? 1 : cfg.numThreads;
  auto zeroElement = [&](idx_t el) {
    linalg::zeroBlock(q(el), elSize_);
    linalg::zeroBlock(b1(el), bufSize_);
    if (useB2_) linalg::zeroBlock(b2(el), bufSize_);
    if (useB3_) linalg::zeroBlock(b3(el), bufSize_);
    if (useStack) linalg::zeroBlock(derivStack(el), stackSize_);
  };
  auto zeroRange = [&](idx_t begin, idx_t end) {
    forEachChunk(nt, [&](int_t t) {
      const ChunkRange c = staticChunk(begin, end, nt, t);
      for (idx_t el = c.begin; el < c.end; ++el) zeroElement(el);
    });
  };
  for (int_t c = 0; c < numClusters_; ++c) zeroRange(clusterBegin(c), clusterEnd(c));
  zeroRange(numOwned_, n); // halo suffix (filled from messages, never stepped)
}

template class SolverState<float, 1>;
template class SolverState<float, 2>;
template class SolverState<float, 4>;
template class SolverState<float, 8>;
template class SolverState<float, 16>;
template class SolverState<double, 1>;
template class SolverState<double, 2>;
template class SolverState<double, 4>;

} // namespace nglts::solver
