// Per-element operator assembly (kernels::buildElementData) against the dense
// `linalg::Matrix` assembly it replaced: every byte of every ElementData
// field, and every error message, must match.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/kernel_setup.hpp"
#include "linalg/dense.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"

namespace nk = nglts::kernels;
namespace nl = nglts::linalg;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
using namespace nglts; // idx_t, int_t, FaceKind, kSxx .. kVelW, kElasticVars

namespace {

// -- the dense reference: Jacobians, rotations, selectors and the element
//    build as full linalg::Matrix products --------------------------------

namespace ref {

nl::Matrix elasticJacobian(const np::Material& mat, int_t dir) {
  nl::Matrix a(kElasticVars, kElasticVars);
  const double lp2m = mat.lambda + 2.0 * mat.mu;
  const double lam = mat.lambda;
  const double mu = mat.mu;
  const double irho = 1.0 / mat.rho;
  switch (dir) {
    case 0:
      a(kSxx, kVelU) = -lp2m;
      a(kSyy, kVelU) = -lam;
      a(kSzz, kVelU) = -lam;
      a(kSxy, kVelV) = -mu;
      a(kSxz, kVelW) = -mu;
      a(kVelU, kSxx) = -irho;
      a(kVelV, kSxy) = -irho;
      a(kVelW, kSxz) = -irho;
      break;
    case 1:
      a(kSxx, kVelV) = -lam;
      a(kSyy, kVelV) = -lp2m;
      a(kSzz, kVelV) = -lam;
      a(kSxy, kVelU) = -mu;
      a(kSyz, kVelW) = -mu;
      a(kVelU, kSxy) = -irho;
      a(kVelV, kSyy) = -irho;
      a(kVelW, kSyz) = -irho;
      break;
    default:
      a(kSxx, kVelW) = -lam;
      a(kSyy, kVelW) = -lam;
      a(kSzz, kVelW) = -lp2m;
      a(kSyz, kVelV) = -mu;
      a(kSxz, kVelU) = -mu;
      a(kVelU, kSxz) = -irho;
      a(kVelV, kSyz) = -irho;
      a(kVelW, kSzz) = -irho;
      break;
  }
  return a;
}

nl::Matrix anelasticJacobian(int_t dir) {
  nl::Matrix a(kAnelasticVarsPerMech, kElasticVars);
  switch (dir) {
    case 0:
      a(0, kVelU) = -1.0;
      a(3, kVelV) = -0.5;
      a(5, kVelW) = -0.5;
      break;
    case 1:
      a(1, kVelV) = -1.0;
      a(3, kVelU) = -0.5;
      a(4, kVelW) = -0.5;
      break;
    default:
      a(2, kVelW) = -1.0;
      a(4, kVelV) = -0.5;
      a(5, kVelU) = -0.5;
      break;
  }
  return a;
}

nl::Matrix elasticJacobianNormal(const np::Material& mat, const std::array<double, 3>& n) {
  nl::Matrix out(kElasticVars, kElasticVars);
  for (int_t d = 0; d < 3; ++d) {
    if (n[d] == 0.0) continue;
    out = out + elasticJacobian(mat, d).scaled(n[d]);
  }
  return out;
}

nl::Matrix anelasticJacobianNormal(const std::array<double, 3>& n) {
  nl::Matrix out(kAnelasticVarsPerMech, kElasticVars);
  for (int_t d = 0; d < 3; ++d) {
    if (n[d] == 0.0) continue;
    out = out + anelasticJacobian(d).scaled(n[d]);
  }
  return out;
}

nl::Matrix couplingE(const np::Material& mat, int_t mech) {
  nl::Matrix e(kElasticVars, kAnelasticVarsPerMech);
  const double yl = mat.yLambda[mech];
  const double ym = mat.yMu[mech];
  for (int_t i = 0; i < 3; ++i)
    for (int_t j = 0; j < 3; ++j) e(i, j) = (i == j) ? -(yl + 2.0 * ym) : -yl;
  for (int_t s = 3; s < 6; ++s) e(s, s) = -2.0 * ym;
  return e;
}

constexpr int_t kVoigtI[6] = {0, 1, 2, 0, 1, 0};
constexpr int_t kVoigtJ[6] = {0, 1, 2, 1, 2, 2};

nl::Matrix rotationFromFrame(const double nmat[3][3]) {
  nl::Matrix t(kElasticVars, kElasticVars);
  for (int_t r = 0; r < 6; ++r) {
    const int_t a = kVoigtI[r], b = kVoigtJ[r];
    for (int_t c = 0; c < 6; ++c) {
      const int_t i = kVoigtI[c], j = kVoigtJ[c];
      double v = nmat[a][i] * nmat[b][j];
      if (i != j) v += nmat[a][j] * nmat[b][i];
      t(r, c) = v;
    }
  }
  for (int_t r = 0; r < 3; ++r)
    for (int_t c = 0; c < 3; ++c) t(6 + r, 6 + c) = nmat[r][c];
  return t;
}

/// T (global -> face frame) and its inverse, built from the transposed frame.
std::array<nl::Matrix, 2> rotations(const nm::FaceGeometry& fg) {
  double nmat[3][3], tmat[3][3];
  for (int_t c = 0; c < 3; ++c) {
    nmat[0][c] = fg.normal[c];
    nmat[1][c] = fg.tangent1[c];
    nmat[2][c] = fg.tangent2[c];
  }
  for (int_t r = 0; r < 3; ++r)
    for (int_t c = 0; c < 3; ++c) tmat[r][c] = nmat[c][r];
  return {rotationFromFrame(nmat), rotationFromFrame(tmat)};
}

void pWaveEntries(double zMinus, double zPlus, nl::Matrix& gm, nl::Matrix& gp, int_t sigmaRow,
                  int_t velRow) {
  const double zsum = zMinus + zPlus;
  if (zsum <= 0.0) return;
  gm(sigmaRow, sigmaRow) += zPlus / zsum;
  gp(sigmaRow, sigmaRow) += zMinus / zsum;
  gm(sigmaRow, velRow) += -zMinus * zPlus / zsum;
  gp(sigmaRow, velRow) += zMinus * zPlus / zsum;
  gm(velRow, velRow) += zMinus / zsum;
  gp(velRow, velRow) += zPlus / zsum;
  gm(velRow, sigmaRow) += -1.0 / zsum;
  gp(velRow, sigmaRow) += 1.0 / zsum;
}

/// Global-frame selectors {G-, G+} of one face (G+ is zero on boundaries).
std::array<nl::Matrix, 2> selectors(const np::Material& mat, const np::Material* neighbor,
                                    FaceKind kind, const nm::FaceGeometry& fg) {
  nl::Matrix gm(kElasticVars, kElasticVars), gp(kElasticVars, kElasticVars);
  if (kind == FaceKind::kFreeSurface) {
    const double zp = mat.zp(), zs = mat.zs();
    gm(kVelU, kVelU) = 1.0;
    gm(kVelU, kSxx) = -1.0 / zp;
    if (zs > 0.0) {
      gm(kVelV, kVelV) = 1.0;
      gm(kVelV, kSxy) = -1.0 / zs;
      gm(kVelW, kVelW) = 1.0;
      gm(kVelW, kSxz) = -1.0 / zs;
    }
  } else {
    const np::Material& plus = kind == FaceKind::kAbsorbing ? mat : *neighbor;
    pWaveEntries(mat.zp(), plus.zp(), gm, gp, kSxx, kVelU);
    pWaveEntries(mat.zs(), plus.zs(), gm, gp, kSxy, kVelV);
    pWaveEntries(mat.zs(), plus.zs(), gm, gp, kSxz, kVelW);
    if (kind == FaceKind::kAbsorbing) gp = nl::Matrix(kElasticVars, kElasticVars);
  }
  const auto [t, ti] = rotations(fg);
  if (kind == FaceKind::kInterior || kind == FaceKind::kPeriodic) gp = ti * gp * t;
  return {ti * gm * t, gp};
}

template <typename Real>
void storeBlock(const nl::Matrix& m, double scale, const nl::StarPattern& p, Real* dst,
                idx_t el, const char* what, int_t index) {
  int_t i = 0;
  for (int_t r = 0; r < m.rows(); ++r)
    for (int_t c = 0; c < m.cols(); ++c) {
      const Real v = static_cast<Real>(scale * m(r, c));
      const bool finite = std::isfinite(v);
      const bool stored = i < p.rowPtr[r + 1] && p.colIdx[i] == c;
      if (finite && stored)
        dst[i++] = v;
      else if (!finite || v != Real(0))
        throw std::runtime_error("element " + std::to_string(el) + ": " + what + "[" +
                                 std::to_string(index) + "] entry (" + std::to_string(r) +
                                 ", " + std::to_string(c) + ") " +
                                 (finite ? "is nonzero outside its fixed pattern"
                                         : "is not finite"));
    }
}

template <typename Real>
nk::ElementData<Real> buildElementData(const nm::TetMesh& mesh,
                                       const std::vector<nm::ElementGeometry>& geo,
                                       const std::vector<np::Material>& materials, idx_t el,
                                       int_t mechanisms) {
  static const nl::StarPattern fluxE = nl::densePattern(kElasticVars, kElasticVars);
  static const nl::StarPattern fluxA = nl::densePattern(kAnelasticVarsPerMech, kElasticVars);
  nk::ElementData<Real> ed;
  const nm::ElementGeometry& g = geo[el];
  const np::Material& mat = materials[el];
  for (int_t c = 0; c < 3; ++c) {
    nl::Matrix se(kElasticVars, kElasticVars);
    nl::Matrix sa(kAnelasticVarsPerMech, kElasticVars);
    for (int_t d = 0; d < 3; ++d) {
      const double f = g.invJac[c][d];
      if (f == 0.0) continue;
      se = se + elasticJacobian(mat, d).scaled(f);
      sa = sa + anelasticJacobian(d).scaled(f);
    }
    storeBlock(se, 1.0, nk::starEPattern(), ed.starE[c].data(), el, "starE", c);
    storeBlock(sa, 1.0, nk::starAPattern(), ed.starA[c].data(), el, "starA", c);
  }
  ed.couple.assign(static_cast<std::size_t>(mechanisms) * nk::kCoupleNnz, Real(0));
  for (int_t l = 0; l < mechanisms && l < mat.mechanisms(); ++l)
    storeBlock(couplingE(mat, l), 1.0, nk::couplePattern(),
               ed.couple.data() + static_cast<std::size_t>(l) * nk::kCoupleNnz, el, "couple",
               l);
  for (int_t f = 0; f < 4; ++f) {
    const nm::FaceInfo& fi = mesh.faces[el][f];
    const nm::FaceGeometry& fg = g.face[f];
    const double ci = g.fluxScale[f];
    const nl::Matrix an = elasticJacobianNormal(mat, fg.normal);
    const nl::Matrix aa = anelasticJacobianNormal(fg.normal);
    const auto [gMinus, gPlus] =
        selectors(mat, fi.neighbor >= 0 ? &materials[fi.neighbor] : nullptr, fi.kind, fg);
    storeBlock(an * gMinus, -ci, fluxE, ed.fluxSolveE[f].data(), el, "fluxSolveE", f);
    storeBlock(an * gPlus, -ci, fluxE, ed.fluxSolveENeigh[f].data(), el, "fluxSolveENeigh", f);
    storeBlock(aa * gMinus, -ci, fluxA, ed.fluxSolveA[f].data(), el, "fluxSolveA", f);
    storeBlock(aa * gPlus, -ci, fluxA, ed.fluxSolveANeigh[f].data(), el, "fluxSolveANeigh", f);
  }
  return ed;
}

} // namespace ref

// -- fixtures -----------------------------------------------------------------

struct Case {
  nm::TetMesh mesh;
  std::vector<nm::ElementGeometry> geo;
  std::vector<np::Material> mats;
};

/// A 3x3x3 box split into a soft top layer over a stiff base (interior faces
/// with a material jump). `periodic`: all faces periodic; otherwise a free
/// surface on top and absorbing elsewhere. Every fourth element is elastic
/// when `mechanisms` > 0, so some carry fewer mechanisms than the run.
Case makeCase(bool periodic, bool jitter, int_t mechanisms) {
  Case c;
  nm::BoxSpec spec;
  for (int_t d = 0; d < 3; ++d) spec.planes[d] = nm::uniformPlanes(0.0, 3000.0, 3);
  spec.periodic = {periodic, periodic, periodic};
  spec.jitter = jitter ? 0.2 : 0.0;
  spec.boundaryKind = FaceKind::kAbsorbing;
  spec.freeSurfaceTop = !periodic;
  c.mesh = nm::generateBox(spec);
  c.geo = nm::computeGeometry(c.mesh);
  for (idx_t e = 0; e < c.mesh.numElements(); ++e) {
    const bool soft = c.mesh.centroid(e)[2] > 2000.0;
    const double rho = soft ? 2600.0 : 2700.0, vp = soft ? 4000.0 : 6000.0,
                 vs = soft ? 2000.0 : 3464.0;
    c.mats.push_back(mechanisms > 0 && e % 4 != 0
                         ? np::viscoElasticMaterial(rho, vp, vs, soft ? 120.0 : 155.9,
                                                    soft ? 40.0 : 69.3, mechanisms, 1.0)
                         : np::elasticMaterial(rho, vp, vs));
  }
  return c;
}

template <typename Real>
bool sameBytes(const nk::ElementData<Real>& a, const nk::ElementData<Real>& b) {
  return std::memcmp(&a.starE, &b.starE, sizeof(a.starE)) == 0 &&
         std::memcmp(&a.starA, &b.starA, sizeof(a.starA)) == 0 &&
         a.couple.size() == b.couple.size() &&
         (a.couple.empty() ||
          std::memcmp(a.couple.data(), b.couple.data(), a.couple.size() * sizeof(Real)) == 0) &&
         std::memcmp(&a.fluxSolveE, &b.fluxSolveE, sizeof(a.fluxSolveE)) == 0 &&
         std::memcmp(&a.fluxSolveENeigh, &b.fluxSolveENeigh, sizeof(a.fluxSolveENeigh)) == 0 &&
         std::memcmp(&a.fluxSolveA, &b.fluxSolveA, sizeof(a.fluxSolveA)) == 0 &&
         std::memcmp(&a.fluxSolveANeigh, &b.fluxSolveANeigh, sizeof(a.fluxSolveANeigh)) == 0;
}

template <typename Fn>
std::string errorOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

template <typename Real>
void expectBitwiseEqual(const Case& c, int_t mechanisms) {
  const auto all = nk::buildAllElementData<Real>(c.mesh, c.geo, c.mats, mechanisms);
  for (idx_t e = 0; e < c.mesh.numElements(); ++e)
    ASSERT_TRUE(sameBytes(all[e], ref::buildElementData<Real>(c.mesh, c.geo, c.mats, e,
                                                              mechanisms)))
        << "element " << e;
}

/// Both assemblies fail on the same element, block and entry; returns the
/// concatenated messages.
template <typename Real>
std::string expectSameError(const Case& c, int_t mechanisms) {
  std::string all;
  for (idx_t e = 0; e < c.mesh.numElements(); ++e) {
    const std::string want = errorOf(
        [&] { ref::buildElementData<Real>(c.mesh, c.geo, c.mats, e, mechanisms); });
    const std::string got =
        errorOf([&] { nk::buildElementData<Real>(c.mesh, c.geo, c.mats, e, mechanisms); });
    EXPECT_EQ(got, want) << "element " << e;
    all += got + "\n";
  }
  return all;
}

} // namespace

TEST(OperatorAssembly, BitwiseEqualToMatrixReference) {
  int_t zeroEntries = 0, negativeZeros = 0;
  for (const bool periodic : {false, true})
    for (const bool jitter : {true, false})
      for (const int_t mechanisms : {0, 1, 3}) {
        SCOPED_TRACE(std::string(periodic ? "periodic" : "free surface + absorbing") + ", " +
                     (jitter ? "jittered" : "axis-aligned") + ", " +
                     std::to_string(mechanisms) + " mechanisms");
        const Case c = makeCase(periodic, jitter, mechanisms);
        expectBitwiseEqual<double>(c, mechanisms);
        expectBitwiseEqual<float>(c, mechanisms);
        for (const auto& g : c.geo) {
          for (const auto& row : g.invJac)
            for (const double v : row) {
              zeroEntries += v == 0.0;
              negativeZeros += v == 0.0 && std::signbit(v);
            }
          for (const auto& fg : g.face)
            for (const double v : fg.normal) {
              zeroEntries += v == 0.0;
              negativeZeros += v == 0.0 && std::signbit(v);
            }
        }
      }
  // The axis-aligned tets exercise the zero skips, signed zeros included.
  EXPECT_GT(zeroEntries, 0);
  EXPECT_GT(negativeZeros, 0);
}

TEST(OperatorAssembly, NonFiniteMaterialFailsOnTheSameEntry) {
  // A bad material fails its own star block first, and its face neighbors'
  // interface flux solvers through the plus-side impedance.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0}) {
    SCOPED_TRACE("rho = " + std::to_string(bad));
    Case c = makeCase(/*periodic=*/false, /*jitter=*/true, /*mechanisms=*/3);
    c.mats[13].rho = bad;
    c.mats[41].yMu[1] = bad; // 41 % 4 != 0: viscoelastic
    for (const std::string& all : {expectSameError<double>(c, 3), expectSameError<float>(c, 3)})
      if (std::isnan(bad))
        for (const char* block : {"element 13: starE[", "element 41: couple[1]", ": fluxSolveE["})
          EXPECT_NE(all.find(block), std::string::npos) << block << " in\n" << all;
  }
}
