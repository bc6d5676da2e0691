#include "kernels/kernel_setup.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"

namespace nglts::kernels {

namespace {

/// A viscoelastic material with every modulus, the density and both
/// coupling coefficients nonzero: its Jacobians show their full pattern.
physics::Material genericMaterial() {
  physics::Material m;
  m.rho = 2.0;
  m.lambda = 3.0;
  m.mu = 5.0;
  m.omega = {1.0};
  m.yLambda = {0.7};
  m.yMu = {0.3};
  return m;
}

linalg::StarPattern checkedPattern(linalg::StarPattern p, int_t nnz, const char* name) {
  if (p.nnz() != nnz)
    throw std::logic_error(std::string(name) + ": " + std::to_string(p.nnz()) +
                           " entries, the element arrays hold " + std::to_string(nnz));
  return p;
}

const linalg::StarPattern& fluxEPattern() {
  static const linalg::StarPattern p = linalg::densePattern(kElasticVars, kElasticVars);
  return p;
}

const linalg::StarPattern& fluxAPattern() {
  static const linalg::StarPattern p = linalg::densePattern(kAnelasticVarsPerMech, kElasticVars);
  return p;
}

/// dst = the entries of scale * m that lie in pattern `p`, in pattern order.
/// Throws, naming global element `el` and block `what[index]`, on a
/// non-finite entry or on a nonzero outside the pattern (the star kernel
/// would never read it).
template <typename Real>
void storeBlock(const linalg::Matrix& m, double scale, const linalg::StarPattern& p, Real* dst,
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

} // namespace

const linalg::StarPattern& starEPattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern({physics::elasticJacobian(genericMaterial(), 0),
                            physics::elasticJacobian(genericMaterial(), 1),
                            physics::elasticJacobian(genericMaterial(), 2)}),
      kStarENnz, "starEPattern");
  return p;
}

const linalg::StarPattern& starAPattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern({physics::anelasticJacobian(0), physics::anelasticJacobian(1),
                            physics::anelasticJacobian(2)}),
      kStarANnz, "starAPattern");
  return p;
}

const linalg::StarPattern& couplePattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern({physics::couplingE(genericMaterial(), 0)}), kCoupleNnz,
      "couplePattern");
  return p;
}

template <typename Real>
ElementData<Real> buildElementData(const mesh::TetMesh& mesh,
                                   const std::vector<mesh::ElementGeometry>& geo,
                                   const std::vector<physics::Material>& materials, idx_t el,
                                   int_t mechanisms) {
  ElementData<Real> ed;
  const mesh::ElementGeometry& g = geo[el];
  const physics::Material& mat = materials[el];

  // Star matrices: linear combinations with rows of the inverse Jacobian.
  for (int_t c = 0; c < 3; ++c) {
    linalg::Matrix se(kElasticVars, kElasticVars);
    linalg::Matrix sa(kAnelasticVarsPerMech, kElasticVars);
    for (int_t d = 0; d < 3; ++d) {
      const double f = g.invJac[c][d];
      if (f == 0.0) continue;
      se = se + physics::elasticJacobian(mat, d).scaled(f);
      sa = sa + physics::anelasticJacobian(d).scaled(f);
    }
    storeBlock(se, 1.0, starEPattern(), ed.starE[c].data(), el, "starE", c);
    storeBlock(sa, 1.0, starAPattern(), ed.starA[c].data(), el, "starA", c);
  }

  // Coupling blocks. Elements whose material carries fewer mechanisms than
  // the run (e.g. effectively elastic regions) get zero coupling.
  ed.couple.assign(static_cast<std::size_t>(mechanisms) * kCoupleNnz, Real(0));
  for (int_t l = 0; l < mechanisms && l < mat.mechanisms(); ++l)
    storeBlock(physics::couplingE(mat, l), 1.0, couplePattern(),
               ed.couple.data() + static_cast<std::size_t>(l) * kCoupleNnz, el, "couple", l);

  // Flux solvers per face: -c_i A_n G(+/-).
  for (int_t f = 0; f < 4; ++f) {
    const mesh::FaceInfo& fi = mesh.faces[el][f];
    const mesh::FaceGeometry& fg = g.face[f];
    const double ci = g.fluxScale[f];
    const linalg::Matrix an = physics::elasticJacobianNormal(mat, fg.normal);
    const linalg::Matrix aa = physics::anelasticJacobianNormal(fg.normal);

    linalg::Matrix gMinus, gPlus(kElasticVars, kElasticVars);
    switch (fi.kind) {
      case FaceKind::kInterior:
      case FaceKind::kPeriodic: {
        const physics::GodunovSelectors sel = physics::godunovInterface(
            mat, materials[fi.neighbor], fg.normal, fg.tangent1, fg.tangent2);
        gMinus = sel.minus;
        gPlus = sel.plus;
        break;
      }
      case FaceKind::kFreeSurface:
        gMinus = physics::freeSurfaceSelector(mat, fg.normal, fg.tangent1, fg.tangent2);
        break;
      case FaceKind::kAbsorbing:
        gMinus = physics::absorbingSelector(mat, fg.normal, fg.tangent1, fg.tangent2);
        break;
    }
    storeBlock(an * gMinus, -ci, fluxEPattern(), ed.fluxSolveE[f].data(), el, "fluxSolveE", f);
    storeBlock(an * gPlus, -ci, fluxEPattern(), ed.fluxSolveENeigh[f].data(), el,
               "fluxSolveENeigh", f);
    storeBlock(aa * gMinus, -ci, fluxAPattern(), ed.fluxSolveA[f].data(), el, "fluxSolveA", f);
    storeBlock(aa * gPlus, -ci, fluxAPattern(), ed.fluxSolveANeigh[f].data(), el,
               "fluxSolveANeigh", f);
  }
  return ed;
}

template <typename Real>
std::vector<ElementData<Real>> buildElementData(const mesh::TetMesh& mesh,
                                                const std::vector<mesh::ElementGeometry>& geo,
                                                const std::vector<physics::Material>& materials,
                                                const std::vector<idx_t>& elements,
                                                int_t mechanisms) {
  const auto n = static_cast<idx_t>(elements.size());
  std::vector<ElementData<Real>> out(elements.size());
  // An exception leaving the OpenMP region would call std::terminate: keep
  // the lowest failing global element (thread-count independent) and throw
  // after.
  idx_t bad = -1;
  std::string what;
#pragma omp parallel for schedule(static)
  for (idx_t i = 0; i < n; ++i) {
    try {
      out[i] = buildElementData<Real>(mesh, geo, materials, elements[i], mechanisms);
    } catch (const std::exception& e) {
#pragma omp critical(nglts_build_element_data)
      if (bad < 0 || elements[i] < bad) {
        bad = elements[i];
        what = e.what();
      }
    }
  }
  if (bad >= 0) throw std::runtime_error("buildElementData: " + what);
  return out;
}

template <typename Real>
std::vector<ElementData<Real>> buildAllElementData(
    const mesh::TetMesh& mesh, const std::vector<mesh::ElementGeometry>& geo,
    const std::vector<physics::Material>& materials, int_t mechanisms) {
  std::vector<idx_t> all(static_cast<std::size_t>(mesh.numElements()));
  std::iota(all.begin(), all.end(), idx_t(0));
  return buildElementData<Real>(mesh, geo, materials, all, mechanisms);
}

template ElementData<float> buildElementData<float>(const mesh::TetMesh&,
                                                    const std::vector<mesh::ElementGeometry>&,
                                                    const std::vector<physics::Material>&, idx_t,
                                                    int_t);
template ElementData<double> buildElementData<double>(const mesh::TetMesh&,
                                                      const std::vector<mesh::ElementGeometry>&,
                                                      const std::vector<physics::Material>&,
                                                      idx_t, int_t);
template std::vector<ElementData<float>> buildElementData<float>(
    const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,
    const std::vector<physics::Material>&, const std::vector<idx_t>&, int_t);
template std::vector<ElementData<double>> buildElementData<double>(
    const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,
    const std::vector<physics::Material>&, const std::vector<idx_t>&, int_t);
template std::vector<ElementData<float>> buildAllElementData<float>(
    const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,
    const std::vector<physics::Material>&, int_t);
template std::vector<ElementData<double>> buildAllElementData<double>(
    const mesh::TetMesh&, const std::vector<mesh::ElementGeometry>&,
    const std::vector<physics::Material>&, int_t);

} // namespace nglts::kernels
