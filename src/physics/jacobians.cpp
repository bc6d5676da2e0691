#include "physics/jacobians.hpp"

#include <cassert>

namespace nglts::physics {

ElasticBlock elasticJacobian(const Material& mat, int_t dir) {
  assert(dir >= 0 && dir < 3);
  ElasticBlock a;
  const double lp2m = mat.lambda + 2.0 * mat.mu;
  const double lam = mat.lambda;
  const double mu = mat.mu;
  const double irho = 1.0 / mat.rho;
  switch (dir) {
    case 0: // A: x-direction
      a.at(kSxx, kVelU) = -lp2m;
      a.at(kSyy, kVelU) = -lam;
      a.at(kSzz, kVelU) = -lam;
      a.at(kSxy, kVelV) = -mu;
      a.at(kSxz, kVelW) = -mu;
      a.at(kVelU, kSxx) = -irho;
      a.at(kVelV, kSxy) = -irho;
      a.at(kVelW, kSxz) = -irho;
      break;
    case 1: // B: y-direction
      a.at(kSxx, kVelV) = -lam;
      a.at(kSyy, kVelV) = -lp2m;
      a.at(kSzz, kVelV) = -lam;
      a.at(kSxy, kVelU) = -mu;
      a.at(kSyz, kVelW) = -mu;
      a.at(kVelU, kSxy) = -irho;
      a.at(kVelV, kSyy) = -irho;
      a.at(kVelW, kSyz) = -irho;
      break;
    default: // C: z-direction
      a.at(kSxx, kVelW) = -lam;
      a.at(kSyy, kVelW) = -lam;
      a.at(kSzz, kVelW) = -lp2m;
      a.at(kSyz, kVelV) = -mu;
      a.at(kSxz, kVelU) = -mu;
      a.at(kVelU, kSxz) = -irho;
      a.at(kVelV, kSyz) = -irho;
      a.at(kVelW, kSzz) = -irho;
      break;
  }
  return a;
}

AnelasticBlock anelasticJacobian(int_t dir) {
  assert(dir >= 0 && dir < 3);
  // Memory variable order per mechanism: (xx, yy, zz, xy, yz, xz); the
  // equations are theta_t + omega * Aa q_x = -omega * theta with
  // Aa-entries such that theta relaxes toward the strain rates.
  AnelasticBlock a;
  switch (dir) {
    case 0:
      a.at(0, kVelU) = -1.0;  // eps_xx_dot = du/dx
      a.at(3, kVelV) = -0.5;  // eps_xy_dot = (du/dy + dv/dx)/2
      a.at(5, kVelW) = -0.5;  // eps_xz_dot
      break;
    case 1:
      a.at(1, kVelV) = -1.0;
      a.at(3, kVelU) = -0.5;
      a.at(4, kVelW) = -0.5;
      break;
    default:
      a.at(2, kVelW) = -1.0;
      a.at(4, kVelV) = -0.5;
      a.at(5, kVelU) = -0.5;
      break;
  }
  return a;
}

std::array<ElasticBlock, 3> elasticJacobians(const Material& mat) {
  return {elasticJacobian(mat, 0), elasticJacobian(mat, 1), elasticJacobian(mat, 2)};
}

const std::array<AnelasticBlock, 3>& anelasticJacobians() {
  static const std::array<AnelasticBlock, 3> a = {anelasticJacobian(0), anelasticJacobian(1),
                                                  anelasticJacobian(2)};
  return a;
}

ElasticBlock elasticJacobianNormal(const Material& mat, const std::array<double, 3>& n) {
  return linalg::linearCombination(elasticJacobians(mat), n);
}

AnelasticBlock anelasticJacobianNormal(const std::array<double, 3>& n) {
  return linalg::linearCombination(anelasticJacobians(), n);
}

CouplingBlock couplingE(const Material& mat, int_t mech) {
  assert(mech >= 0 && mech < mat.mechanisms());
  CouplingBlock e;
  const double yl = mat.yLambda[mech];
  const double ym = mat.yMu[mech];
  // sigma_ii rows: -(yl + 2 ym) on the matching normal memory variable,
  // -yl on the two others; shear rows: -2 ym (sigma_xy = 2 mu eps_xy).
  for (int_t i = 0; i < 3; ++i)
    for (int_t j = 0; j < 3; ++j) e.at(i, j) = (i == j) ? -(yl + 2.0 * ym) : -yl;
  for (int_t s = 3; s < 6; ++s) e.at(s, s) = -2.0 * ym;
  return e;
}

} // namespace nglts::physics
