#pragma once
// The Jacobians of the anelastic wave equations (paper Eq. 1-3):
//   q_t + A q_x + B q_y + C q_z = E q
// with q = [sigma_xx, sigma_yy, sigma_zz, sigma_xy, sigma_yz, sigma_xz,
//           u, v, w, theta^1_xx .. theta^m_xz].
// We build the 9x9 elastic blocks, the material-independent 6x9 anelastic
// blocks (the relaxation frequency omega_l is factored out, Eq. 7), and the
// 9x6 coupling blocks E_l, as fixed-size blocks that mark their structure
// (linalg/block.hpp).
#include <array>

#include "linalg/block.hpp"
#include "physics/material.hpp"

namespace nglts::physics {

/// 9x9 elastic block: Jacobians, face rotations, Godunov selectors.
using ElasticBlock = linalg::Block<kElasticVars, kElasticVars>;
/// 6x9 anelastic block: the omega-free Jacobians.
using AnelasticBlock = linalg::Block<kAnelasticVarsPerMech, kElasticVars>;
/// 9x6 coupling block E_l.
using CouplingBlock = linalg::Block<kElasticVars, kAnelasticVarsPerMech>;

/// Elastic Jacobian block A_e (dir=0), B_e (dir=1) or C_e (dir=2).
ElasticBlock elasticJacobian(const Material& mat, int_t dir);

/// {A_e, B_e, C_e} of one material.
std::array<ElasticBlock, 3> elasticJacobians(const Material& mat);

/// Anelastic block for one direction, *without* the omega_l factor; rows are
/// the strain-rate extraction operators (material independent).
AnelasticBlock anelasticJacobian(int_t dir);

/// {A_a, B_a, C_a}, built once.
const std::array<AnelasticBlock, 3>& anelasticJacobians();

/// Elastic Jacobian in direction n: A n_x + B n_y + C n_z.
ElasticBlock elasticJacobianNormal(const Material& mat, const std::array<double, 3>& n);

/// Anelastic Jacobian in direction n (omega-free).
AnelasticBlock anelasticJacobianNormal(const std::array<double, 3>& n);

/// Coupling block E_l mapping mechanism-l memory variables into the nine
/// elastic equations (velocity rows are zero).
CouplingBlock couplingE(const Material& mat, int_t mech);

} // namespace nglts::physics
