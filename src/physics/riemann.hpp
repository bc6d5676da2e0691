#pragma once
// Godunov (exact Riemann) interface-state selectors for the elastic wave
// equations across (possibly heterogeneous) material interfaces, in the
// impedance form. The selectors G-, G+ give the interface state
//   q* = G- q(-) + G+ q(+)
// in the *global* frame; the flux solver matrices of the paper are then
//   A~(e,-) = -c_i A_n(mat_k) G-,     A~(e,+) = -c_i A_n(mat_k) G+,
//   A~(a,-) = -c_i Aa_n G-,           A~(a,+) = -c_i Aa_n G+,
// with c_i = 2|S_i| / |J_k| (assembled in kernels/kernel_setup).
#include <array>

#include "physics/jacobians.hpp"
#include "physics/material.hpp"

namespace nglts::physics {

/// 9x9 rotation of (stress, velocity) into the face-aligned frame spanned by
/// (n, t1, t2): q_face = T * q_global. Block diagonal (6x6 stress, 3x3
/// velocity), and marked so.
ElasticBlock faceRotation(const std::array<double, 3>& n, const std::array<double, 3>& t1,
                          const std::array<double, 3>& t2);

/// Inverse rotation (face -> global). Exactly the rotation built from the
/// transposed frame; returned explicitly for clarity.
ElasticBlock faceRotationInverse(const std::array<double, 3>& n,
                                 const std::array<double, 3>& t1,
                                 const std::array<double, 3>& t2);

struct GodunovSelectors {
  ElasticBlock minus; ///< weight of the interior (minus) state
  ElasticBlock plus;  ///< weight of the neighboring (plus) state
};

/// Interior face between two (possibly different) materials; the normal
/// points from the minus (local) element to the plus (neighbor) element.
GodunovSelectors godunovInterface(const Material& matMinus, const Material& matPlus,
                                  const std::array<double, 3>& n,
                                  const std::array<double, 3>& t1,
                                  const std::array<double, 3>& t2);

/// Free surface: traction components of q* vanish, velocities take the
/// mirrored-ghost values. Only the minus selector is nonzero.
ElasticBlock freeSurfaceSelector(const Material& mat, const std::array<double, 3>& n,
                                 const std::array<double, 3>& t1,
                                 const std::array<double, 3>& t2);

/// First-order absorbing boundary: only outgoing characteristics contribute
/// (matched-impedance zero exterior state).
ElasticBlock absorbingSelector(const Material& mat, const std::array<double, 3>& n,
                               const std::array<double, 3>& t1,
                               const std::array<double, 3>& t2);

} // namespace nglts::physics
