#include "basis/tet_basis.hpp"

#include <cmath>

#include "basis/jacobi.hpp"
#include "basis/quadrature.hpp"

namespace nglts::basis {

// Collapsed-coordinate factorization without divisions:
//   phi_pqr = S_p^{(0,0)}(u1, v1) * S_q^{(2p+1,0)}(u2, v2) * P_r^{(2p+2q+2,0)}(c)
// with u1 = 2 xi1 - (1 - xi2 - xi3), v1 = 1 - xi2 - xi3,
//      u2 = 2 xi2 - (1 - xi3),       v2 = 1 - xi3,       c = 2 xi3 - 1.

TetBasis::TetBasis(int_t order) : order_(order) {
  for (int_t deg = 0; deg < order; ++deg)
    for (int_t p = deg; p >= 0; --p)
      for (int_t q = deg - p; q >= 0; --q) {
        const int_t r = deg - p - q;
        modes_.push_back({p, q, r});
      }
  const auto quad = tetQuadrature(order + 1);
  norm_.resize(modes_.size());
  for (std::size_t b = 0; b < modes_.size(); ++b) {
    double m = 0.0;
    for (const auto& qp : quad) {
      const double v = rawEval(static_cast<int_t>(b), qp.xi);
      m += qp.weight * v * v;
    }
    norm_[b] = 1.0 / std::sqrt(m);
  }
}

int_t TetBasis::sizeOfOrder(int_t deg) const {
  if (deg <= 0) return 0;
  if (deg >= order_) return size();
  return deg * (deg + 1) * (deg + 2) / 6;
}

double TetBasis::rawEval(int_t b, const std::array<double, 3>& xi) const {
  const auto [p, q, r] = modes_[b];
  const double u1 = 2.0 * xi[0] - (1.0 - xi[1] - xi[2]);
  const double v1 = 1.0 - xi[1] - xi[2];
  const double u2 = 2.0 * xi[1] - (1.0 - xi[2]);
  const double v2 = 1.0 - xi[2];
  const double c = 2.0 * xi[2] - 1.0;
  return scaledJacobi(p, 0.0, 0.0, u1, v1) * scaledJacobi(q, 2.0 * p + 1.0, 0.0, u2, v2) *
         jacobi(r, 2.0 * p + 2.0 * q + 2.0, 0.0, c);
}

double TetBasis::eval(int_t b, const std::array<double, 3>& xi) const {
  return norm_[b] * rawEval(b, xi);
}

std::vector<double> TetBasis::evalAll(const std::array<double, 3>& xi) const {
  std::vector<double> out(modes_.size());
  for (std::size_t b = 0; b < modes_.size(); ++b) out[b] = eval(static_cast<int_t>(b), xi);
  return out;
}

std::array<double, 3> TetBasis::evalGrad(int_t b, const std::array<double, 3>& xi) const {
  const auto [p, q, r] = modes_[b];
  const double u1 = 2.0 * xi[0] - (1.0 - xi[1] - xi[2]);
  const double v1 = 1.0 - xi[1] - xi[2];
  const double u2 = 2.0 * xi[1] - (1.0 - xi[2]);
  const double v2 = 1.0 - xi[2];
  const double c = 2.0 * xi[2] - 1.0;

  const ScaledJacobiDerivs s1 = scaledJacobiDerivs(p, 0.0, 0.0, u1, v1);
  const ScaledJacobiDerivs s2 = scaledJacobiDerivs(q, 2.0 * p + 1.0, 0.0, u2, v2);
  const double p3 = jacobi(r, 2.0 * p + 2.0 * q + 2.0, 0.0, c);
  const double dp3 = jacobiDerivative(r, 2.0 * p + 2.0 * q + 2.0, 0.0, c);

  // Chain rule with du1/dxi = (2, 1, 1), dv1/dxi = (0, -1, -1),
  // du2/dxi = (0, 2, 1), dv2/dxi = (0, 0, -1), dc/dxi = (0, 0, 2).
  const double dS1_x = 2.0 * s1.du;
  const double dS1_yz = s1.du - s1.dv; // d/dxi2 == d/dxi3 contribution of S1
  const double dS2_y = 2.0 * s2.du;
  const double dS2_z = s2.du - s2.dv;

  std::array<double, 3> g;
  g[0] = dS1_x * s2.value * p3;
  g[1] = dS1_yz * s2.value * p3 + s1.value * dS2_y * p3;
  g[2] = dS1_yz * s2.value * p3 + s1.value * dS2_z * p3 + s1.value * s2.value * 2.0 * dp3;
  for (double& v : g) v *= norm_[b];
  return g;
}

} // namespace nglts::basis
