#pragma once
// Assembly of the per-element operator data (star matrices, coupling blocks,
// Godunov flux solvers) from mesh geometry and materials. Runs in double
// precision on fixed-size stack blocks (linalg/block.hpp), bitwise equal to
// the dense linalg::Matrix products, and casts to the kernel scalar type;
// the star and coupling blocks keep only the values of their fixed patterns,
// and the anelastic blocks exist only when the run has mechanisms
// (element_data.hpp).
#include <vector>

#include "kernels/element_data.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"

namespace nglts::kernels {

/// Build the operator data of a single element (a one-element arena).
/// `materials` is indexed by element id (the neighbor's material enters the
/// interface flux solvers). Throws `std::runtime_error` naming the element
/// on a non-finite operator entry or a star/coupling nonzero outside its
/// fixed pattern.
template <typename Real>
OperatorData<Real> buildElementData(const mesh::TetMesh& mesh,
                                    const std::vector<mesh::ElementGeometry>& geo,
                                    const std::vector<physics::Material>& materials, idx_t el,
                                    int_t mechanisms);

/// Build the operator data of the listed elements, in list order, in one
/// OpenMP-parallel pass over both arenas (the anelastic blocks only when
/// `mechanisms` > 0). If any element fails, throws the error of the lowest
/// failing element id, whatever the thread count.
template <typename Real>
OperatorData<Real> buildElementData(const mesh::TetMesh& mesh,
                                    const std::vector<mesh::ElementGeometry>& geo,
                                    const std::vector<physics::Material>& materials,
                                    const std::vector<idx_t>& elements, int_t mechanisms);

/// Build the operator data of every element (the list form over all ids).
template <typename Real>
OperatorData<Real> buildAllElementData(const mesh::TetMesh& mesh,
                                       const std::vector<mesh::ElementGeometry>& geo,
                                       const std::vector<physics::Material>& materials,
                                       int_t mechanisms);

#define NGLTS_OPERATOR_DATA_BUILDERS(Extern, Real)                                             \
  Extern template OperatorData<Real> buildElementData<Real>(                                   \
      const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,                         \
      const std::vector<physics::Material>&, idx_t, int_t);                                    \
  Extern template OperatorData<Real> buildElementData<Real>(                                   \
      const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,                         \
      const std::vector<physics::Material>&, const std::vector<idx_t>&, int_t);                \
  Extern template OperatorData<Real> buildAllElementData<Real>(                                \
      const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,                         \
      const std::vector<physics::Material>&, int_t);

NGLTS_OPERATOR_DATA_BUILDERS(extern, float)
NGLTS_OPERATOR_DATA_BUILDERS(extern, double)

} // namespace nglts::kernels
