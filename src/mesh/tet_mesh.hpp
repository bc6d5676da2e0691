#pragma once
// Unstructured conforming tetrahedral mesh container plus face-neighbor
// connectivity (built by hashing sorted global vertex triples), the mesh
// substrate of the solver (paper Sec. III/VI).
#include <array>
#include <vector>

#include "common/types.hpp"

namespace nglts::mesh {

struct FaceInfo {
  idx_t neighbor = -1;     ///< neighboring element id, -1 at domain boundary
  int_t neighborFace = -1; ///< the neighbor's local face id of the shared face
  int_t perm = 0;          ///< orientation permutation id (see basis::kFacePermutations)
  FaceKind kind = FaceKind::kAbsorbing;
};

struct TetMesh {
  std::vector<std::array<double, 3>> vertices;
  std::vector<std::array<idx_t, 4>> elements;     ///< vertex ids, positively oriented
  std::vector<std::array<FaceInfo, 4>> faces;     ///< per element, per local face

  idx_t numElements() const { return static_cast<idx_t>(elements.size()); }
  idx_t numVertices() const { return static_cast<idx_t>(vertices.size()); }

  /// Global vertex ids of local face `face` of element `el`, in the
  /// canonical local order (matching basis::kFaceVertices).
  std::array<idx_t, 3> faceVertices(idx_t el, int_t face) const;

  /// Element centroid.
  std::array<double, 3> centroid(idx_t el) const;
};

/// Orientation determinant of element `el`: det of the edge matrix
/// [v1 - v0, v2 - v0, v3 - v0] = 6 x signed volume; 0 for a flat tet.
double orientationDet(const TetMesh& mesh, idx_t el);

/// Ensure every element has positive orientation (det of edge matrix > 0);
/// swaps two vertices where needed. Returns the number of flips.
idx_t fixOrientation(TetMesh& mesh);

/// Build face adjacency. `vertexKey` (optional, may be empty) maps vertex ids
/// to identification keys — used to realize periodic boundaries by mapping
/// partner vertices to one key. Boundary faces get `boundaryKind`.
void buildConnectivity(TetMesh& mesh, const std::vector<idx_t>& vertexKey = {},
                       FaceKind boundaryKind = FaceKind::kAbsorbing);

/// Validate the connectivity invariants (symmetry, permutation consistency);
/// throws std::runtime_error on violation. Used by tests and the pipeline.
void checkConnectivity(const TetMesh& mesh);

} // namespace nglts::mesh
