#pragma once
// The solver-arena ordering of one rank — paper Sec. VI: sorting by time
// cluster and communication role simplifies bookkeeping and makes the time /
// volume / local-surface kernels stream linearly through memory.
#include <vector>

#include "common/types.hpp"
#include "mesh/tet_mesh.hpp"

namespace nglts::partition {

/// One rank's arena numbering over the global element ids: internal ids
/// [0, numOwned) are the rank's owned elements, [numOwned, size) its halo
/// (remote face-neighbors of owned elements).
struct Reordering {
  /// newId[global] — the element's internal id, -1 if the rank has no slot.
  std::vector<idx_t> newId;
  /// oldId[internal] — the element's global id.
  std::vector<idx_t> oldId;
  idx_t numOwned = 0;
};

/// The arena ordering of rank `rank` under partition `part` (indexed by
/// global id; empty = one rank owning every element). Owned elements form
/// one contiguous range per time cluster, each split into an interior
/// sub-block followed by the halo-boundary sub-block (elements with
/// `hasHaloFace`). Each sub-block starts as its owned elements in ascending
/// global id; a BFS over the sub-block's dual graph replaces that order when
/// it packs face-neighbors closer (the neighbor phase then reads mostly
/// nearby buffer slices). The halo follows every cluster range, in
/// first-encounter order over the owned elements. Without a halo the
/// boundary sub-blocks are empty.
Reordering buildClusterReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& cluster,
                                  const std::vector<int_t>& part = {}, int_t rank = 0);

/// Whether element `e` has a face neighbor that rank `rank` does not own
/// under `part` (empty: every element is owned, so never).
bool hasHaloFace(const mesh::TetMesh& mesh, idx_t e, const std::vector<int_t>& part,
                 int_t rank);

/// First internal index of each cluster under a cluster-contiguous
/// reordering: `numClusters + 1` offsets, range of cluster c is
/// [offsets[c], offsets[c+1]). Throws std::runtime_error if `cluster`
/// (given in the *new* order, i.e. already permuted) is not contiguous.
std::vector<idx_t> clusterRanges(const std::vector<int_t>& clusterNewOrder, int_t numClusters);

/// The mesh in the reordering's internal ids. An owned row keeps every
/// face whose neighbor has an internal id; a halo row keeps only its faces
/// back into the owned range. Every other face is cut to an absorbing
/// boundary. Vertices are shared wholesale.
mesh::TetMesh applyReordering(const mesh::TetMesh& mesh, const Reordering& r);

} // namespace nglts::partition
