#pragma once
// Layer 1 of the solver core: the memory arena. `SolverState` owns every
// per-element array the time loop touches — DOFs `q`, the elastic buffers
// B1/B2/B3 of the next-generation LTS scheme, the baseline scheme's
// derivative stack, and the per-element operator data — laid out in a
// *cluster-contiguous* internal order: the elements of time cluster c occupy
// the contiguous index range [clusterBegin(c), clusterEnd(c)), and inside a
// cluster face-neighbors are packed close by a dual-graph BFS
// (partition::buildClusterReordering, paper Sec. VI). On a rank of a
// distributed run each cluster range is further split into an interior
// sub-range followed by the halo-boundary sub-range [haloBoundaryBegin(c),
// clusterEnd(c)), so the engine runs both halves of an op as contiguous
// ranges too. Every element loop of the executor streams linearly through
// one such range.
//
// B2 and B3 live in compact side arenas: an element gets a B2 slot only if
// a face neighbor (owned or halo) has a smaller cluster, and a B3 slot only
// if one has a larger cluster — the only consumers that read them (Sec.
// V-B). Slots ascend with the internal id, so the side arenas keep the
// cluster-contiguous order.
//
// All arenas are NUMA first-touch initialized by a parallel per-cluster
// zero-fill pass (arena_vector's resize leaves pages untouched) that uses
// the *same* static chunking as the executor's element loops
// (solver/threading.hpp, SimConfig::numThreads): the thread that zeroes —
// and thereby places — a cluster chunk's pages is the thread that computes
// those elements every step, so the hot loops stream through node-local
// memory.
//
// Two element-id spaces meet here: the caller's global ids (the mesh order
// sources, receivers and tests are built against) and the internal arena
// slots, mapped by toInternal()/toExternal(). The state is built straight
// from the caller's global mesh, materials, geometry and clustering and
// keeps no copy of them; everything above this layer speaks global ids,
// everything inside the time loop speaks internal ids.
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/element_data.hpp"
#include "lts/clustering.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "partition/reorder.hpp"
#include "physics/material.hpp"
#include "solver/config.hpp"

namespace nglts::solver {

template <typename Real, int W>
class SolverState {
 public:
  /// Builds the internal face adjacency, the per-element operator data and
  /// the solver arenas of one rank. All inputs are the caller's, indexed by
  /// global element id; the clustering must already be final (cluster ids +
  /// cluster count).
  ///
  /// `part` maps every global element to a rank (distributed execution,
  /// Sec. V-C); empty means one rank owning every element. The elements
  /// rank `rank` owns get the internal ids [0, numOwned()) in
  /// cluster-contiguous ranges; its halo — the remote face-neighbors of
  /// owned elements — gets [numOwned(), numElements()), outside every
  /// cluster range the executor iterates. Halo elements keep their face
  /// links back into the owned range but have no arena or operator data:
  /// their face data arrives through messages.
  SolverState(const mesh::TetMesh& mesh, const std::vector<physics::Material>& materials,
              const std::vector<mesh::ElementGeometry>& geo, const lts::Clustering& clustering,
              const kernels::AderKernels<Real, W>& kernels, const SimConfig& cfg,
              const std::vector<int_t>& part = {}, int_t rank = 0);

  // -- layout ---------------------------------------------------------------
  /// Owned plus halo elements.
  idx_t numElements() const { return mesh_.numElements(); }
  /// Owned elements (== numElements() without a halo). The internal ids
  /// [0, numOwned()) are owned, [numOwned(), n) are halo; only owned
  /// elements have arena slots and operator data.
  idx_t numOwned() const { return reorder_.numOwned; }
  idx_t numHalo() const { return numElements() - numOwned(); }
  bool isHalo(idx_t internal) const { return internal >= numOwned(); }
  int_t numClusters() const { return numClusters_; }
  /// Internal index range of cluster c: [clusterBegin(c), clusterEnd(c)).
  idx_t clusterBegin(int_t c) const { return clusterOffsets_[c]; }
  idx_t clusterEnd(int_t c) const { return clusterOffsets_[c + 1]; }
  /// First element of cluster c's halo-boundary sub-range: the elements of
  /// [haloBoundaryBegin(c), clusterEnd(c)) are exactly those with a face
  /// neighbor in the halo suffix. Equals clusterEnd(c) without a halo.
  idx_t haloBoundaryBegin(int_t c) const { return haloBoundaryBegin_[c]; }
  int_t clusterOf(idx_t internal) const { return cluster_[internal]; }

  /// Internal id of global element `external`, -1 if this rank has no slot.
  idx_t toInternal(idx_t external) const { return reorder_.newId[external]; }
  /// Global id of internal element `internal`.
  idx_t toExternal(idx_t internal) const { return reorder_.oldId[internal]; }

  /// The permuted mesh the executor iterates (face adjacency in internal
  /// ids; see partition::applyReordering for the halo rows).
  const mesh::TetMesh& internalMesh() const { return mesh_; }
  const kernels::ElementData<Real>& elementData(idx_t internal) const {
    return elementData_[internal];
  }

  // -- arenas (owned internal element ids) ---------------------------------
  Real* q(idx_t internal) { return q_.data() + internal * elSize_; }
  const Real* q(idx_t internal) const { return q_.data() + internal * elSize_; }
  Real* b1(idx_t internal) { return b1_.data() + internal * bufSize_; }
  const Real* b1(idx_t internal) const { return b1_.data() + internal * bufSize_; }
  /// B2/B3 of an owned element; nullptr where the element has no slot (no
  /// neighbor reads it, or the scheme keeps no such buffer).
  Real* b2(idx_t internal) { return slot(b2_, b2Slot_[internal]); }
  const Real* b2(idx_t internal) const { return slot(b2_, b2Slot_[internal]); }
  Real* b3(idx_t internal) { return slot(b3_, b3Slot_[internal]); }
  const Real* b3(idx_t internal) const { return slot(b3_, b3Slot_[internal]); }
  Real* derivStack(idx_t internal) { return derivStack_.data() + internal * stackSize_; }
  const Real* derivStack(idx_t internal) const {
    return derivStack_.data() + internal * stackSize_;
  }

  /// Which buffers this scheme/clustering combination keeps (for the
  /// elements that have a slot).
  bool useB2() const { return useB2_; }
  bool useB3() const { return useB3_; }
  /// Number of B2/B3 slots: the elements whose b2()/b3() is not nullptr.
  idx_t numB2Slots() const { return static_cast<idx_t>(b2_.size() / bufSize_); }
  idx_t numB3Slots() const { return static_cast<idx_t>(b3_.size() / bufSize_); }

  std::size_t elSize() const { return elSize_; }     ///< nq x nb x W
  std::size_t bufSize() const { return bufSize_; }   ///< 9 x nb x W
  std::size_t stackSize() const { return stackSize_; } ///< order x 9 x nb x W

 private:
  partition::Reordering reorder_;
  mesh::TetMesh mesh_;                       ///< internal order
  int_t numClusters_ = 1;
  std::vector<int_t> cluster_;               ///< internal order, owned + halo
  std::vector<idx_t> clusterOffsets_;        ///< numClusters + 1 prefix offsets
  std::vector<idx_t> haloBoundaryBegin_;     ///< per cluster
  std::vector<kernels::ElementData<Real>> elementData_; ///< owned only

  std::size_t elSize_ = 0, bufSize_ = 0, stackSize_ = 0;
  bool useB2_ = false, useB3_ = false;
  std::vector<idx_t> b2Slot_, b3Slot_;       ///< owned only; -1 = no slot

  arena_vector<Real> q_;
  arena_vector<Real> b1_;
  arena_vector<Real> b2_, b3_;               ///< side arenas, one block per slot
  arena_vector<Real> derivStack_; ///< baseline scheme only

  template <typename Arena>
  auto slot(Arena& arena, idx_t s) const -> decltype(arena.data()) {
    return s < 0 ? nullptr : arena.data() + s * bufSize_;
  }
};

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, extern, SolverState)

} // namespace nglts::solver
