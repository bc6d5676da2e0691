#pragma once
// The static, element-independent DG operator matrices of Sec. III, built
// once per convergence order O in double precision:
//   massDiag  — diagonal mass matrix (orthonormal basis => identity; kept
//               explicit and verified in tests),
//   kXi[c]    — volume "stiffness" matrices K_c   (B x B),
//   gXi[c]    — Cauchy-Kowalevski derivative operators G_c (B x B),
//   fluxLocal[i]     — trace projection   F~_i (B x F),
//   fluxLift[i]      — lifting            F^_i (F x B), M^{-1}-premultiplied,
//   fluxNeigh[j][s]  — neighbor trace projection F-_{j,s} (B x F) for
//                      neighbor-local face j and vertex permutation s.
#include <array>
#include <memory>
#include <vector>

#include "basis/tet_basis.hpp"
#include "basis/tri_basis.hpp"
#include "common/types.hpp"
#include "linalg/dense.hpp"

namespace nglts::basis {

/// Local faces of the reference tetrahedron with vertices
/// V0=(0,0,0), V1=(1,0,0), V2=(0,1,0), V3=(0,0,1); face i lists its three
/// local vertex ids in canonical (ascending) order.
inline constexpr std::array<std::array<int_t, 3>, 4> kFaceVertices = {{
    {0, 1, 2}, // z = 0 plane
    {0, 1, 3}, // y = 0 plane
    {0, 2, 3}, // x = 0 plane
    {1, 2, 3}, // x + y + z = 1 plane
}};

/// The six permutations of three face vertices; index into this list is the
/// orientation id "s" selecting a neighbor flux matrix.
inline constexpr std::array<std::array<int_t, 3>, 6> kFacePermutations = {{
    {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}};

/// Map a point of the unit triangle onto reference-tet face i.
std::array<double, 3> faceParam(int_t face, double s, double t);

/// Find the permutation id such that applying kFacePermutations[id] to
/// `from` yields `to` (both are triples of global vertex ids of one shared
/// face). Returns -1 if the triples do not match as sets.
int_t findFacePermutation(const std::array<idx_t, 3>& from, const std::array<idx_t, 3>& to);

struct GlobalMatrices {
  int_t order = 0;
  int_t nBasis = 0;  // B(order)
  int_t nFaceBasis = 0; // F(order)

  std::shared_ptr<const TetBasis> tet;
  std::shared_ptr<const TriBasis> tri;

  std::vector<double> massDiag; // B entries
  std::array<linalg::Matrix, 3> kXi;   // volume kernel stiffness (M^{-1}-post)
  std::array<linalg::Matrix, 3> gXi;   // CK derivative operators
  std::array<linalg::Matrix, 4> fluxLocal; // B x F
  std::array<linalg::Matrix, 4> fluxLift;  // F x B
  std::array<std::array<linalg::Matrix, 6>, 4> fluxNeigh; // B x F
};

/// Build (and cache) the matrices for a given order; thread-safe.
std::shared_ptr<const GlobalMatrices> buildGlobalMatrices(int_t order);

} // namespace nglts::basis
