#pragma once
// Mesh reordering by (partition, time cluster, communication role)
// — paper Sec. VI: the reorder simplifies bookkeeping and makes the time /
// volume / local-surface kernels stream linearly through memory.
#include <vector>

#include "common/types.hpp"
#include "mesh/tet_mesh.hpp"

namespace nglts::partition {

struct Reordering {
  /// newId[oldId] — where each element moved.
  std::vector<idx_t> newId;
  /// oldId[newId] — inverse permutation.
  std::vector<idx_t> oldId;
};

/// Compute the (partition, cluster, comm-role) ordering. Elements with a
/// face neighbor in another partition ("send" elements) are grouped after
/// the interior elements of the same (partition, cluster) block.
Reordering buildReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& part,
                           const std::vector<int_t>& cluster);

/// The solver-arena ordering: every time cluster becomes one contiguous
/// index range, and inside each cluster elements are renumbered by a BFS
/// over the intra-cluster dual graph so face-neighbors land close in memory
/// (the neighbor phase then reads mostly nearby buffer slices).
/// `packNeighbors = false` keeps the stable by-cluster sort only.
/// `numOwned >= 0` restricts the permutation to the owned prefix
/// [0, numOwned): only owned elements are cluster-sorted/BFS-packed; the
/// halo suffix [numOwned, n) keeps its order, appended after the owned
/// cluster ranges (the distributed arena layout of Sec. V-C). Each owned
/// cluster range is itself split into an interior sub-block followed by the
/// halo-boundary sub-block (elements with `hasHaloFace`), and the BFS runs
/// inside each sub-block. Without a halo suffix the boundary sub-blocks are
/// empty.
Reordering buildClusterReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& cluster,
                                  bool packNeighbors = true, idx_t numOwned = -1);

/// Whether element `e` has a face neighbor in the halo suffix
/// [numOwned, n) — a halo-boundary element of a rank-local view.
bool hasHaloFace(const mesh::TetMesh& mesh, idx_t e, idx_t numOwned);

/// First internal index of each cluster under a cluster-contiguous
/// reordering: `numClusters + 1` offsets, range of cluster c is
/// [offsets[c], offsets[c+1]). Throws std::runtime_error if `cluster`
/// (given in the *new* order, i.e. already permuted) is not contiguous.
std::vector<idx_t> clusterRanges(const std::vector<int_t>& clusterNewOrder, int_t numClusters);

/// Apply a reordering: permutes elements and remaps the face adjacency.
/// Per-element attributes must be permuted by the caller via `oldId`.
mesh::TetMesh applyReordering(const mesh::TetMesh& mesh, const Reordering& r);

/// Permute a per-element attribute vector into the new order.
template <typename T>
std::vector<T> permute(const std::vector<T>& attr, const Reordering& r) {
  std::vector<T> out(attr.size());
  for (std::size_t e = 0; e < attr.size(); ++e) out[e] = attr[r.oldId[e]];
  return out;
}

} // namespace nglts::partition
