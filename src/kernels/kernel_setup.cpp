#include "kernels/kernel_setup.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
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

} // namespace

const linalg::StarPattern& starEPattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern(physics::elasticJacobians(genericMaterial())), kStarENnz,
      "starEPattern");
  return p;
}

const linalg::StarPattern& starAPattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern(physics::anelasticJacobians()), kStarANnz, "starAPattern");
  return p;
}

const linalg::StarPattern& couplePattern() {
  static const linalg::StarPattern p = checkedPattern(
      linalg::unionPattern(std::array{physics::couplingE(genericMaterial(), 0)}), kCoupleNnz,
      "couplePattern");
  return p;
}

namespace {

/// Where a block kind's fixed pattern puts its values in the element arrays:
/// the row-major offset of stored value s, and whether a dense entry is
/// stored at all.
template <int_t R, int_t C>
struct PatternLayout {
  explicit PatternLayout(const linalg::StarPattern& p) {
    for (int_t r = 0; r < R; ++r)
      for (int_t i = p.rowPtr[r]; i < p.rowPtr[r + 1]; ++i) {
        offset.push_back(r * C + p.colIdx[i]);
        stored[static_cast<std::size_t>(r) * C + p.colIdx[i]] = true;
      }
  }
  std::vector<int_t> offset;
  std::array<bool, static_cast<std::size_t>(R) * C> stored{};
};

const PatternLayout<kElasticVars, kElasticVars>& starELayout() {
  static const PatternLayout<kElasticVars, kElasticVars> l(starEPattern());
  return l;
}

const PatternLayout<kAnelasticVarsPerMech, kElasticVars>& starALayout() {
  static const PatternLayout<kAnelasticVarsPerMech, kElasticVars> l(starAPattern());
  return l;
}

const PatternLayout<kElasticVars, kAnelasticVarsPerMech>& coupleLayout() {
  static const PatternLayout<kElasticVars, kAnelasticVarsPerMech> l(couplePattern());
  return l;
}

template <typename Real>
bool finite(Real v) {
  return std::fabs(v) <= std::numeric_limits<Real>::max();
}

/// The row-major scan behind a failed store: throws, naming global element
/// `el`, block `what[index]` and the first entry of scale * m that is not
/// finite or is a nonzero outside the pattern (`stored`, null for a dense
/// block).
template <typename Real, int_t R, int_t C>
[[noreturn]] void throwFirstBadEntry(const linalg::Block<R, C>& m, double scale,
                                     const bool* stored, idx_t el, const char* what,
                                     int_t index) {
  for (int_t r = 0; r < R; ++r)
    for (int_t c = 0; c < C; ++c) {
      const Real v = static_cast<Real>(scale * m(r, c));
      const bool inPattern = !stored || stored[r * C + c];
      if (finite(v) && (inPattern || v == Real(0))) continue;
      throw std::runtime_error("element " + std::to_string(el) + ": " + what + "[" +
                               std::to_string(index) + "] entry (" + std::to_string(r) + ", " +
                               std::to_string(c) + ") " +
                               (finite(v) ? "is nonzero outside its fixed pattern"
                                          : "is not finite"));
    }
  throw std::logic_error("throwFirstBadEntry: no bad entry");
}

/// dst = scale * m, every entry row-major (the dense flux solvers). Throws
/// as `throwFirstBadEntry` on a non-finite entry.
template <typename Real, int_t R, int_t C>
void storeDense(const linalg::Block<R, C>& m, double scale, Real* dst, idx_t el,
                const char* what, int_t index) {
  int bad = 0; // an int, not a bool &=, so that GCC vectorizes the check
  for (int_t i = 0; i < R * C; ++i) {
    const Real v = static_cast<Real>(scale * m.data()[i]);
    dst[i] = v;
    bad |= !finite(v);
  }
  if (bad) throwFirstBadEntry<Real>(m, scale, nullptr, el, what, index);
}

/// dst = the entries of m that lie in the pattern of `layout`, in pattern
/// order. Throws as `throwFirstBadEntry` on a non-finite entry or on a
/// nonzero outside the pattern (the star kernel would never read it).
template <typename Real, int_t R, int_t C>
void storePattern(const linalg::Block<R, C>& m, const PatternLayout<R, C>& layout, Real* dst,
                  idx_t el, const char* what, int_t index) {
  int bad = 0;
  for (int_t i = 0; i < R * C; ++i) {
    const Real v = static_cast<Real>(m.data()[i]);
    bad |= (!finite(v)) | (!layout.stored[i] & (v != Real(0)));
  }
  if (bad) throwFirstBadEntry<Real>(m, 1.0, layout.stored.data(), el, what, index);
  for (std::size_t s = 0; s < layout.offset.size(); ++s)
    dst[s] = static_cast<Real>(m.data()[layout.offset[s]]);
}

/// Writes every entry of element `el`'s operators (in place, no zero fill
/// first). `a` and `couple` are null in an elastic run (no mechanisms):
/// the anelastic blocks are then not assembled at all.
template <typename Real>
void buildInto(ElasticOperators<Real>& e, AnelasticOperators<Real>* a, Real* couple,
               const mesh::TetMesh& mesh, const std::vector<mesh::ElementGeometry>& geo,
               const std::vector<physics::Material>& materials, idx_t el, int_t mechanisms) {
  const mesh::ElementGeometry& g = geo[el];
  const physics::Material& mat = materials[el];

  // Star matrices: linear combinations with rows of the inverse Jacobian.
  const std::array<physics::ElasticBlock, 3> je = physics::elasticJacobians(mat);
  const std::array<physics::AnelasticBlock, 3>& ja = physics::anelasticJacobians();
  for (int_t c = 0; c < 3; ++c) {
    storePattern(linalg::linearCombination(je, g.invJac[c]), starELayout(), e.starE[c].data(),
                 el, "starE", c);
    if (a)
      storePattern(linalg::linearCombination(ja, g.invJac[c]), starALayout(),
                   a->starA[c].data(), el, "starA", c);
  }

  // Coupling blocks. Elements whose material carries fewer mechanisms than
  // the run (e.g. effectively elastic regions) get zero coupling.
  std::fill_n(couple, static_cast<std::size_t>(mechanisms) * kCoupleNnz, Real(0));
  for (int_t l = 0; l < mechanisms && l < mat.mechanisms(); ++l)
    storePattern(physics::couplingE(mat, l), coupleLayout(),
                 couple + static_cast<std::size_t>(l) * kCoupleNnz, el, "couple", l);

  // Flux solvers per face: -c_i A_n G(+/-).
  for (int_t f = 0; f < 4; ++f) {
    const mesh::FaceInfo& fi = mesh.faces[el][f];
    const mesh::FaceGeometry& fg = g.face[f];
    const double ci = g.fluxScale[f];
    const physics::ElasticBlock an = linalg::linearCombination(je, fg.normal);

    physics::ElasticBlock gMinus, gPlus;
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
    storeDense(an * gMinus, -ci, e.fluxSolveE[f].data(), el, "fluxSolveE", f);
    storeDense(an * gPlus, -ci, e.fluxSolveENeigh[f].data(), el, "fluxSolveENeigh", f);
    if (a) {
      const physics::AnelasticBlock aa = linalg::linearCombination(ja, fg.normal);
      storeDense(aa * gMinus, -ci, a->fluxSolveA[f].data(), el, "fluxSolveA", f);
      storeDense(aa * gPlus, -ci, a->fluxSolveANeigh[f].data(), el, "fluxSolveANeigh", f);
    }
  }
}

} // namespace

template <typename Real>
OperatorData<Real> buildElementData(const mesh::TetMesh& mesh,
                                    const std::vector<mesh::ElementGeometry>& geo,
                                    const std::vector<physics::Material>& materials,
                                    const std::vector<idx_t>& elements, int_t mechanisms) {
  const auto n = static_cast<idx_t>(elements.size());
  OperatorData<Real> out(n, mechanisms); // not touched: built in place below
  // An exception leaving the OpenMP region would call std::terminate: keep
  // the lowest failing global element (thread-count independent) and throw
  // after.
  idx_t bad = -1;
  std::string what;
#pragma omp parallel for schedule(static)
  for (idx_t i = 0; i < n; ++i) {
    try {
      buildInto(out.elastic(i), out.anelastic(i), out.couple(i), mesh, geo, materials,
                elements[i], mechanisms);
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
OperatorData<Real> buildElementData(const mesh::TetMesh& mesh,
                                    const std::vector<mesh::ElementGeometry>& geo,
                                    const std::vector<physics::Material>& materials, idx_t el,
                                    int_t mechanisms) {
  OperatorData<Real> out(1, mechanisms);
  buildInto(out.elastic(0), out.anelastic(0), out.couple(0), mesh, geo, materials, el,
            mechanisms);
  return out;
}

template <typename Real>
OperatorData<Real> buildAllElementData(const mesh::TetMesh& mesh,
                                       const std::vector<mesh::ElementGeometry>& geo,
                                       const std::vector<physics::Material>& materials,
                                       int_t mechanisms) {
  std::vector<idx_t> all(static_cast<std::size_t>(mesh.numElements()));
  std::iota(all.begin(), all.end(), idx_t(0));
  return buildElementData<Real>(mesh, geo, materials, all, mechanisms);
}

NGLTS_OPERATOR_DATA_BUILDERS(, float)
NGLTS_OPERATOR_DATA_BUILDERS(, double)

} // namespace nglts::kernels
