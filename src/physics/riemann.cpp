#include "physics/riemann.hpp"

#include <stdexcept>

namespace nglts::physics {

namespace {

// Voigt index pairs of our stress ordering (xx, yy, zz, xy, yz, xz).
constexpr int_t kVoigtI[6] = {0, 1, 2, 0, 1, 0};
constexpr int_t kVoigtJ[6] = {0, 1, 2, 1, 2, 2};

/// 6x6 stress rotation for sigma' = N sigma N^T with our Voigt ordering and
/// unscaled shear entries.
void fillStressRotation(const double nmat[3][3], ElasticBlock& t) {
  for (int_t r = 0; r < 6; ++r) {
    const int_t a = kVoigtI[r], b = kVoigtJ[r];
    for (int_t c = 0; c < 6; ++c) {
      const int_t i = kVoigtI[c], j = kVoigtJ[c];
      double v = nmat[a][i] * nmat[b][j];
      if (i != j) v += nmat[a][j] * nmat[b][i]; // both (i,j) and (j,i) tensor slots
      t.at(r, c) = v;
    }
  }
}

ElasticBlock rotationFromFrame(const double nmat[3][3]) {
  ElasticBlock t;
  fillStressRotation(nmat, t);
  for (int_t r = 0; r < 3; ++r)
    for (int_t c = 0; c < 3; ++c) t.at(6 + r, 6 + c) = nmat[r][c];
  return t;
}

/// Face-frame Godunov selectors; rows/cols in face-frame variable order.
/// Only the six flux-relevant components of q* are produced:
/// sigma_nn (0), sigma_ns (3), sigma_nt (5), u_n (6), u_s (7), u_t (8), so
/// each selector marks at most 12 entries.
void pWaveEntries(double zMinus, double zPlus, ElasticBlock& gm, ElasticBlock& gp,
                  int_t sigmaRow, int_t velRow) {
  const double zsum = zMinus + zPlus;
  if (zsum <= 0.0) return; // degenerate (e.g. both sides fluid shear): no flux
  // sigma* = [Z+ s- + Z- s+ + Z- Z+ (u+ - u-)] / (Z- + Z+)
  gm.at(sigmaRow, sigmaRow) += zPlus / zsum;
  gp.at(sigmaRow, sigmaRow) += zMinus / zsum;
  gm.at(sigmaRow, velRow) += -zMinus * zPlus / zsum;
  gp.at(sigmaRow, velRow) += zMinus * zPlus / zsum;
  // u* = [Z- u- + Z+ u+ + (s+ - s-)] / (Z- + Z+)
  gm.at(velRow, velRow) += zMinus / zsum;
  gp.at(velRow, velRow) += zPlus / zsum;
  gm.at(velRow, sigmaRow) += -1.0 / zsum;
  gp.at(velRow, sigmaRow) += 1.0 / zsum;
}

GodunovSelectors faceFrameSelectors(const Material& matMinus, const Material& matPlus) {
  GodunovSelectors g;
  pWaveEntries(matMinus.zp(), matPlus.zp(), g.minus, g.plus, kSxx, kVelU); // P: (s_nn, u_n)
  pWaveEntries(matMinus.zs(), matPlus.zs(), g.minus, g.plus, kSxy, kVelV); // S: (s_ns, u_s)
  pWaveEntries(matMinus.zs(), matPlus.zs(), g.minus, g.plus, kSxz, kVelW); // S: (s_nt, u_t)
  return g;
}

void frameMatrix(const std::array<double, 3>& n, const std::array<double, 3>& t1,
                 const std::array<double, 3>& t2, double nmat[3][3]) {
  for (int_t c = 0; c < 3; ++c) {
    nmat[0][c] = n[c];
    nmat[1][c] = t1[c];
    nmat[2][c] = t2[c];
  }
}

} // namespace

ElasticBlock faceRotation(const std::array<double, 3>& n, const std::array<double, 3>& t1,
                          const std::array<double, 3>& t2) {
  double nm[3][3];
  frameMatrix(n, t1, t2, nm);
  return rotationFromFrame(nm);
}

ElasticBlock faceRotationInverse(const std::array<double, 3>& n,
                                 const std::array<double, 3>& t1,
                                 const std::array<double, 3>& t2) {
  double nm[3][3], tm[3][3];
  frameMatrix(n, t1, t2, nm);
  for (int_t r = 0; r < 3; ++r)
    for (int_t c = 0; c < 3; ++c) tm[r][c] = nm[c][r];
  return rotationFromFrame(tm);
}

GodunovSelectors godunovInterface(const Material& matMinus, const Material& matPlus,
                                  const std::array<double, 3>& n,
                                  const std::array<double, 3>& t1,
                                  const std::array<double, 3>& t2) {
  const ElasticBlock t = faceRotation(n, t1, t2);
  const ElasticBlock ti = faceRotationInverse(n, t1, t2);
  GodunovSelectors g = faceFrameSelectors(matMinus, matPlus);
  g.minus = ti * g.minus * t;
  g.plus = ti * g.plus * t;
  return g;
}

ElasticBlock freeSurfaceSelector(const Material& mat, const std::array<double, 3>& n,
                                 const std::array<double, 3>& t1,
                                 const std::array<double, 3>& t2) {
  // Mirrored ghost: sigma+ = -sigma-, u+ = u-, matched impedance =>
  // sigma* traction rows vanish; u*_n = u_n - sigma_nn / Z.
  ElasticBlock gm;
  const double zp = mat.zp(), zs = mat.zs();
  gm.at(kVelU, kVelU) = 1.0;
  gm.at(kVelU, kSxx) = -1.0 / zp;
  if (zs > 0.0) {
    gm.at(kVelV, kVelV) = 1.0;
    gm.at(kVelV, kSxy) = -1.0 / zs;
    gm.at(kVelW, kVelW) = 1.0;
    gm.at(kVelW, kSxz) = -1.0 / zs;
  }
  const ElasticBlock t = faceRotation(n, t1, t2);
  const ElasticBlock ti = faceRotationInverse(n, t1, t2);
  return ti * gm * t;
}

ElasticBlock absorbingSelector(const Material& mat, const std::array<double, 3>& n,
                               const std::array<double, 3>& t1,
                               const std::array<double, 3>& t2) {
  // Matched impedance, zero exterior state: only outgoing characteristics.
  const GodunovSelectors g = faceFrameSelectors(mat, mat);
  const ElasticBlock t = faceRotation(n, t1, t2);
  const ElasticBlock ti = faceRotationInverse(n, t1, t2);
  return ti * g.minus * t;
}

} // namespace nglts::physics
