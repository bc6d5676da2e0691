#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "linalg/dense.hpp"
#include "physics/attenuation.hpp"
#include "physics/jacobians.hpp"
#include "physics/material.hpp"
#include "physics/riemann.hpp"

namespace np = nglts::physics;
namespace nl = nglts::linalg;
using nglts::int_t;

namespace {

std::array<double, 3> normalize(std::array<double, 3> v) {
  const double n = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  for (double& c : v) c /= n;
  return v;
}

/// Orthonormal tangents for a unit normal.
void tangents(const std::array<double, 3>& n, std::array<double, 3>& t1,
              std::array<double, 3>& t2) {
  const std::array<double, 3> ref = std::fabs(n[0]) < 0.9 ? std::array<double, 3>{1, 0, 0}
                                                          : std::array<double, 3>{0, 1, 0};
  t1 = {n[1] * ref[2] - n[2] * ref[1], n[2] * ref[0] - n[0] * ref[2],
        n[0] * ref[1] - n[1] * ref[0]};
  t1 = normalize(t1);
  t2 = {n[1] * t1[2] - n[2] * t1[1], n[2] * t1[0] - n[0] * t1[2], n[0] * t1[1] - n[1] * t1[0]};
}

/// Plane-wave eigenvector of A_n with speed c (P: c = +/-vp dir = n;
/// S: c = +/-vs, dir = unit shear polarization orthogonal to n).
/// q = [sigma, v] with v = dir, sigma_ij = -(lambda delta_ij (dir.n) +
/// mu (dir_i n_j + dir_j n_i)) / c.
std::vector<double> planeWaveEigenvector(const np::Material& m, const std::array<double, 3>& n,
                                         const std::array<double, 3>& dir, double c) {
  const double dn = dir[0] * n[0] + dir[1] * n[1] + dir[2] * n[2];
  double sig[3][3];
  for (int_t i = 0; i < 3; ++i)
    for (int_t j = 0; j < 3; ++j)
      sig[i][j] = -(m.lambda * (i == j ? dn : 0.0) + m.mu * (dir[i] * n[j] + dir[j] * n[i])) / c;
  return {sig[0][0], sig[1][1], sig[2][2], sig[0][1], sig[1][2], sig[0][2],
          dir[0],    dir[1],    dir[2]};
}

/// A fixed-size physics block as a dense setup matrix.
template <int_t R, int_t C>
nl::Matrix dense(const nl::Block<R, C>& b) {
  nl::Matrix m(R, C);
  for (int_t r = 0; r < R; ++r)
    for (int_t c = 0; c < C; ++c) m(r, c) = b(r, c);
  return m;
}

template <typename Dense>
std::vector<double> applyMatrix(const Dense& a, const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (int_t r = 0; r < a.rows(); ++r)
    for (int_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  return y;
}

} // namespace

TEST(Material, ElasticFromVelocities) {
  const auto m = np::elasticMaterial(2700.0, 6000.0, 3464.0);
  EXPECT_NEAR(m.vp(), 6000.0, 1e-9);
  EXPECT_NEAR(m.vs(), 3464.0, 1e-9);
  EXPECT_GT(m.lambda, 0.0);
}

TEST(Jacobians, MinimalPolynomialOfNormalJacobian) {
  // A_n has eigenvalues {+-vp, +-vs (x2), 0 (x3)}:
  // A_n (A_n^2 - vp^2) (A_n^2 - vs^2) = 0.
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  for (const auto& nRaw : {std::array<double, 3>{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1},
                           {0.3, -0.7, 0.2}}) {
    const auto n = normalize(nRaw);
    const nl::Matrix an = dense(np::elasticJacobianNormal(m, n));
    const nl::Matrix an2 = an * an;
    const double vp2 = m.vp() * m.vp(), vs2 = m.vs() * m.vs();
    nl::Matrix shifted1 = an2 - nl::Matrix::identity(9).scaled(vp2);
    nl::Matrix shifted2 = an2 - nl::Matrix::identity(9).scaled(vs2);
    const nl::Matrix res = an * shifted1 * shifted2;
    EXPECT_NEAR(res.maxAbs() / (vp2 * vp2 * m.rho), 0.0, 1e-8);
  }
}

TEST(Jacobians, PlaneWaveEigenvectors) {
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto n = normalize({0.48, -0.6, 0.64});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  // P wave along n, S waves polarized along t1/t2, both signs.
  struct Case {
    std::array<double, 3> dir;
    double c;
  };
  for (const Case& cs : {Case{n, m.vp()}, Case{n, -m.vp()}, Case{t1, m.vs()},
                         Case{t2, -m.vs()}}) {
    const auto r = planeWaveEigenvector(m, n, cs.dir, cs.c);
    const auto ar = applyMatrix(np::elasticJacobianNormal(m, n), r);
    for (int_t i = 0; i < 9; ++i)
      EXPECT_NEAR(ar[i], cs.c * r[i], 1e-6 * std::max(1.0, std::fabs(cs.c * r[i])))
          << "component " << i;
  }
}

TEST(Jacobians, AnelasticStrainRateExtraction) {
  // Applying the anelastic normal Jacobian to a velocity field gradient
  // state must produce (minus) the normal strain rates.
  const auto aa = np::anelasticJacobianNormal({1.0, 0.0, 0.0});
  std::vector<double> q(9, 0.0);
  q[nglts::kVelU] = 2.0;
  q[nglts::kVelV] = 4.0;
  q[nglts::kVelW] = 6.0;
  const auto th = applyMatrix(aa, q);
  EXPECT_NEAR(th[0], -2.0, 1e-14); // eps_xx from du/dx
  EXPECT_NEAR(th[3], -2.0, 1e-14); // eps_xy gets dv/dx * 1/2
  EXPECT_NEAR(th[5], -3.0, 1e-14); // eps_xz gets dw/dx * 1/2
  EXPECT_NEAR(th[1], 0.0, 1e-14);
  EXPECT_NEAR(th[2], 0.0, 1e-14);
  EXPECT_NEAR(th[4], 0.0, 1e-14);
}

TEST(Attenuation, ConstantQFitFlat) {
  for (double q : {20.0, 69.3, 155.9}) {
    const auto fit = np::fitConstantQ(q, 3, 1.0, 100.0);
    ASSERT_EQ(fit.omega.size(), 3u);
    // Check flatness over the central decade of the band.
    for (double f : {0.2, 0.5, 1.0, 2.0, 5.0}) {
      const double qEff = np::fitQuality(fit, 2.0 * std::numbers::pi * f);
      EXPECT_NEAR(qEff, q, 0.12 * q) << "f=" << f << " Q=" << q;
    }
  }
}

TEST(Attenuation, MechanismCountSweep) {
  // More mechanisms give a flatter fit.
  double worst1 = 0.0, worst5 = 0.0;
  for (int_t mechs : {1, 5}) {
    const auto fit = np::fitConstantQ(50.0, mechs, 1.0, 100.0);
    double worst = 0.0;
    for (double f = 0.15; f <= 6.0; f *= 1.3) {
      const double qEff = np::fitQuality(fit, 2.0 * std::numbers::pi * f);
      worst = std::max(worst, std::fabs(qEff - 50.0) / 50.0);
    }
    (mechs == 1 ? worst1 : worst5) = worst;
  }
  EXPECT_LT(worst5, worst1);
}

TEST(Attenuation, UnrelaxedModuliLargerThanElastic) {
  const auto m = np::viscoElasticMaterial(2600.0, 4000.0, 2000.0, 120.0, 40.0, 3, 1.0);
  const auto e = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  EXPECT_GT(m.mu, e.mu);
  EXPECT_GT(m.lambda + 2 * m.mu, e.lambda + 2 * e.mu);
  EXPECT_EQ(m.mechanisms(), 3);
  // Unrelaxed velocities exceed the reference-frequency targets slightly.
  EXPECT_GT(m.vp(), 4000.0);
  EXPECT_LT(m.vp(), 4400.0);
}

TEST(Attenuation, InfiniteQIsElastic) {
  const auto m = np::viscoElasticMaterial(2600.0, 4000.0, 2000.0,
                                          std::numeric_limits<double>::infinity(),
                                          std::numeric_limits<double>::infinity(), 3, 1.0);
  EXPECT_FALSE(m.viscoelastic());
  EXPECT_NEAR(m.vp(), 4000.0, 1e-9);
}

TEST(Riemann, RotationInverse) {
  const auto n = normalize({0.2, 0.5, -0.8});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto t = dense(np::faceRotation(n, t1, t2));
  const auto ti = dense(np::faceRotationInverse(n, t1, t2));
  EXPECT_NEAR((t * ti).distance(nl::Matrix::identity(9)), 0.0, 1e-12);
  EXPECT_NEAR((ti * t).distance(nl::Matrix::identity(9)), 0.0, 1e-12);
}

TEST(Riemann, ConsistencyEqualStates) {
  // For equal materials and q- == q+, the Godunov state must reproduce the
  // traction and velocity components of q.
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto n = normalize({0.6, -0.3, 0.74});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto sel = np::godunovInterface(m, m, n, t1, t2);
  const nl::Matrix sum = dense(sel.minus) + dense(sel.plus);
  // sum should act as identity on traction & velocity: verify via traction.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q(9);
  for (auto& v : q) v = uni(rng);
  const auto qs = applyMatrix(sum, q);
  // Traction sigma.n and velocity must match.
  auto traction = [&](const std::vector<double>& s) {
    std::array<double, 3> tr;
    const double sxx = s[0], syy = s[1], szz = s[2], sxy = s[3], syz = s[4], sxz = s[5];
    tr[0] = sxx * n[0] + sxy * n[1] + sxz * n[2];
    tr[1] = sxy * n[0] + syy * n[1] + syz * n[2];
    tr[2] = sxz * n[0] + syz * n[1] + szz * n[2];
    return tr;
  };
  const auto trQ = traction(q), trS = traction(qs);
  for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(trS[d], trQ[d], 1e-9);
  for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(qs[6 + d], q[6 + d], 1e-12);
}

TEST(Riemann, OutgoingWavePassesAbsorbing) {
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto n = normalize({0.0, 0.6, 0.8});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto g = np::absorbingSelector(m, n, t1, t2);
  // Outgoing P wave (speed +vp, moving along +n out of the element).
  const auto r = planeWaveEigenvector(m, n, n, m.vp());
  const auto gr = applyMatrix(g, r);
  // Traction and velocity of q* equal those of r.
  for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(gr[6 + d], r[6 + d], 1e-9);
}

TEST(Riemann, IncomingWaveAbsorbed) {
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto n = normalize({0.0, 0.6, 0.8});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto g = np::absorbingSelector(m, n, t1, t2);
  // Incoming wave: speed -vp (traveling inward against n).
  const auto r = planeWaveEigenvector(m, n, n, -m.vp());
  const auto gr = applyMatrix(g, r);
  for (int_t i = 0; i < 9; ++i) EXPECT_NEAR(gr[i], 0.0, 1e-9 * std::max(1.0, std::fabs(r[i])));
}

TEST(Riemann, FreeSurfaceTractionVanishes) {
  const auto m = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto n = normalize({0.3, 0.4, 0.86});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto g = np::freeSurfaceSelector(m, n, t1, t2);
  std::mt19937 rng(6);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q(9);
  for (auto& v : q) v = uni(rng);
  const auto qs = applyMatrix(g, q);
  const double sxx = qs[0], syy = qs[1], szz = qs[2], sxy = qs[3], syz = qs[4], sxz = qs[5];
  EXPECT_NEAR(sxx * n[0] + sxy * n[1] + sxz * n[2], 0.0, 1e-10);
  EXPECT_NEAR(sxy * n[0] + syy * n[1] + syz * n[2], 0.0, 1e-10);
  EXPECT_NEAR(sxz * n[0] + syz * n[1] + szz * n[2], 0.0, 1e-10);
}

TEST(Riemann, HeterogeneousInterfaceContinuity) {
  // Traction and velocity of the Godunov state agree from both sides.
  const auto mA = np::elasticMaterial(2600.0, 4000.0, 2000.0);
  const auto mB = np::elasticMaterial(2700.0, 6000.0, 3464.0);
  const auto n = normalize({0.5, 0.5, 0.707});
  std::array<double, 3> t1, t2;
  tangents(n, t1, t2);
  const auto selA = np::godunovInterface(mA, mB, n, t1, t2);
  const std::array<double, 3> nOpp = {-n[0], -n[1], -n[2]};
  std::array<double, 3> t1o, t2o;
  tangents(nOpp, t1o, t2o);
  const auto selB = np::godunovInterface(mB, mA, nOpp, t1o, t2o);

  std::mt19937 rng(7);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> qA(9), qB(9);
  for (auto& v : qA) v = uni(rng);
  for (auto& v : qB) v = uni(rng);

  const auto starA = applyMatrix(selA.minus, qA);
  const auto starA2 = applyMatrix(selA.plus, qB);
  const auto starB = applyMatrix(selB.minus, qB);
  const auto starB2 = applyMatrix(selB.plus, qA);
  std::vector<double> sA(9), sB(9);
  for (int_t i = 0; i < 9; ++i) {
    sA[i] = starA[i] + starA2[i];
    sB[i] = starB[i] + starB2[i];
  }
  auto traction = [&](const std::vector<double>& s) {
    std::array<double, 3> tr;
    tr[0] = s[0] * n[0] + s[3] * n[1] + s[5] * n[2];
    tr[1] = s[3] * n[0] + s[1] * n[1] + s[4] * n[2];
    tr[2] = s[5] * n[0] + s[4] * n[1] + s[2] * n[2];
    return tr;
  };
  const auto trA = traction(sA), trB = traction(sB);
  for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(trA[d], trB[d], 1e-9);
  for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(sA[6 + d], sB[6 + d], 1e-10);
}
