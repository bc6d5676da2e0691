#include "mesh/geometry.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "basis/global_matrices.hpp"

namespace nglts::mesh {

namespace {

std::array<double, 3> cross(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]};
}

double dot(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

double norm(const std::array<double, 3>& a) { return std::sqrt(dot(a, a)); }

std::array<double, 3> normalized(std::array<double, 3> a) {
  const double n = norm(a);
  for (double& v : a) v /= n;
  return a;
}

} // namespace

ElementGeometry computeElementGeometry(const TetMesh& mesh, idx_t el) {
  ElementGeometry g;
  const auto& e = mesh.elements[el];
  const auto& v0 = mesh.vertices[e[0]];
  for (int_t c = 0; c < 3; ++c)
    for (int_t d = 0; d < 3; ++d) g.jac[d][c] = mesh.vertices[e[c + 1]][d] - v0[d];

  const auto& J = g.jac;
  g.detJac = J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1]) -
             J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0]) +
             J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]);
  if (g.detJac <= 0.0)
    throw std::runtime_error("computeElementGeometry: non-positive element orientation");
  g.volume = g.detJac / 6.0;

  const double invDet = 1.0 / g.detJac;
  g.invJac[0][0] = (J[1][1] * J[2][2] - J[1][2] * J[2][1]) * invDet;
  g.invJac[0][1] = (J[0][2] * J[2][1] - J[0][1] * J[2][2]) * invDet;
  g.invJac[0][2] = (J[0][1] * J[1][2] - J[0][2] * J[1][1]) * invDet;
  g.invJac[1][0] = (J[1][2] * J[2][0] - J[1][0] * J[2][2]) * invDet;
  g.invJac[1][1] = (J[0][0] * J[2][2] - J[0][2] * J[2][0]) * invDet;
  g.invJac[1][2] = (J[0][2] * J[1][0] - J[0][0] * J[1][2]) * invDet;
  g.invJac[2][0] = (J[1][0] * J[2][1] - J[1][1] * J[2][0]) * invDet;
  g.invJac[2][1] = (J[0][1] * J[2][0] - J[0][0] * J[2][1]) * invDet;
  g.invJac[2][2] = (J[0][0] * J[1][1] - J[0][1] * J[1][0]) * invDet;

  // Faces: area, outward normal, tangent frame, flux scale.
  double areaSum = 0.0;
  const std::array<double, 3> centroid = mesh.centroid(el);
  for (int_t f = 0; f < 4; ++f) {
    const auto& fv = basis::kFaceVertices[f];
    const auto& p0 = mesh.vertices[e[fv[0]]];
    const auto& p1 = mesh.vertices[e[fv[1]]];
    const auto& p2 = mesh.vertices[e[fv[2]]];
    const std::array<double, 3> e1 = {p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]};
    const std::array<double, 3> e2 = {p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]};
    std::array<double, 3> nrm = cross(e1, e2);
    const double twoArea = norm(nrm);
    FaceGeometry& fg = g.face[f];
    fg.area = 0.5 * twoArea;
    nrm = normalized(nrm);
    // Orient outward: away from the centroid.
    const std::array<double, 3> toC = {centroid[0] - p0[0], centroid[1] - p0[1],
                                       centroid[2] - p0[2]};
    if (dot(nrm, toC) > 0.0)
      for (double& v : nrm) v = -v;
    fg.normal = nrm;
    fg.tangent1 = normalized(e1);
    fg.tangent2 = cross(nrm, fg.tangent1);
    g.fluxScale[f] = 2.0 * fg.area / g.detJac;
    areaSum += fg.area;
  }
  // Insphere radius: r = 3V / (sum of face areas).
  g.inradius = 3.0 * g.volume / areaSum;
  return g;
}

std::vector<ElementGeometry> computeGeometry(const TetMesh& mesh) {
  std::vector<ElementGeometry> out(mesh.numElements());
  // An exception leaving the OpenMP region would call std::terminate: keep
  // the lowest failing element (thread-count independent) and throw after.
  idx_t bad = -1;
  std::string what;
#pragma omp parallel for schedule(static)
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    try {
      out[el] = computeElementGeometry(mesh, el);
    } catch (const std::exception& e) {
#pragma omp critical(nglts_compute_geometry)
      if (bad < 0 || el < bad) {
        bad = el;
        what = e.what();
      }
    }
  }
  if (bad >= 0)
    throw std::runtime_error("computeGeometry: element " + std::to_string(bad) + ": " + what);
  return out;
}

std::array<double, 3> physicalToReference(const TetMesh& mesh, const ElementGeometry& geo,
                                          idx_t el, const std::array<double, 3>& x) {
  const auto& v0 = mesh.vertices[mesh.elements[el][0]];
  const std::array<double, 3> d = {x[0] - v0[0], x[1] - v0[1], x[2] - v0[2]};
  std::array<double, 3> xi = {0.0, 0.0, 0.0};
  for (int_t r = 0; r < 3; ++r)
    for (int_t c = 0; c < 3; ++c) xi[r] += geo.invJac[r][c] * d[c];
  return xi;
}

bool insideReference(const std::array<double, 3>& xi, double tol) {
  return xi[0] >= -tol && xi[1] >= -tol && xi[2] >= -tol &&
         xi[0] + xi[1] + xi[2] <= 1.0 + tol;
}

idx_t locatePoint(const TetMesh& mesh, const std::vector<ElementGeometry>& geo,
                  const std::array<double, 3>& x) {
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    if (insideReference(physicalToReference(mesh, geo[el], el, x), 1e-9)) return el;
  }
  return -1;
}

} // namespace nglts::mesh
