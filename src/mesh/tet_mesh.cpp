#include "mesh/tet_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "basis/global_matrices.hpp"

namespace nglts::mesh {

namespace {

struct TripleHash {
  std::size_t operator()(const std::array<idx_t, 3>& t) const {
    std::size_t h = 1469598103934665603ull;
    for (idx_t v : t) {
      h ^= static_cast<std::size_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  }
};

} // namespace

std::array<idx_t, 3> TetMesh::faceVertices(idx_t el, int_t face) const {
  const auto& fv = basis::kFaceVertices[face];
  const auto& e = elements[el];
  return {e[fv[0]], e[fv[1]], e[fv[2]]};
}

std::array<double, 3> TetMesh::centroid(idx_t el) const {
  std::array<double, 3> c = {0.0, 0.0, 0.0};
  for (idx_t v : elements[el])
    for (int_t d = 0; d < 3; ++d) c[d] += 0.25 * vertices[v][d];
  return c;
}

double orientationDet(const TetMesh& m, idx_t el) {
  const auto& e = m.elements[el];
  const auto& v0 = m.vertices[e[0]];
  double a[3][3];
  for (int_t c = 0; c < 3; ++c)
    for (int_t d = 0; d < 3; ++d) a[d][c] = m.vertices[e[c + 1]][d] - v0[d];
  return a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
         a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
         a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
}

double shapeQuality(const TetMesh& m, idx_t el) {
  const auto& e = m.elements[el];
  auto sub = [&](int_t i, int_t j) {
    const auto& a = m.vertices[e[i]];
    const auto& b = m.vertices[e[j]];
    return std::array<double, 3>{a[0] - b[0], a[1] - b[1], a[2] - b[2]};
  };
  auto dot = [](const std::array<double, 3>& a, const std::array<double, 3>& b) {
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
  };
  double longest2 = 0.0;
  for (int_t i = 0; i < 4; ++i)
    for (int_t j = i + 1; j < 4; ++j) {
      const auto d = sub(j, i);
      longest2 = std::max(longest2, dot(d, d));
    }
  // inradius = 3 volume / surface area, with 6 volume = |det| and each face
  // area half the norm of an edge cross product.
  double area2 = 0.0; // twice the surface area
  for (int_t f = 0; f < 4; ++f) {
    const auto& fv = basis::kFaceVertices[f];
    const auto u = sub(fv[1], fv[0]);
    const auto v = sub(fv[2], fv[0]);
    const std::array<double, 3> n = {u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                                     u[0] * v[1] - u[1] * v[0]};
    area2 += std::sqrt(dot(n, n));
  }
  const double inradius = std::fabs(orientationDet(m, el)) / area2;
  return 2.0 * std::sqrt(6.0) * inradius / std::sqrt(longest2);
}

idx_t fixOrientation(TetMesh& mesh) {
  idx_t flips = 0;
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    if (orientationDet(mesh, el) < 0.0) {
      std::swap(mesh.elements[el][2], mesh.elements[el][3]);
      ++flips;
    }
  }
  return flips;
}

void buildConnectivity(TetMesh& mesh, const std::vector<idx_t>& vertexKey,
                       FaceKind boundaryKind) {
  const bool periodic = !vertexKey.empty();
  auto key = [&](idx_t v) { return periodic ? vertexKey[v] : v; };

  mesh.faces.assign(mesh.elements.size(), {});
  // Map sorted keyed triple -> (element, local face).
  std::unordered_map<std::array<idx_t, 3>, std::pair<idx_t, int_t>, TripleHash> open;
  open.reserve(mesh.elements.size() * 2);

  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    for (int_t f = 0; f < 4; ++f) {
      auto tri = mesh.faceVertices(el, f);
      std::array<idx_t, 3> keyed = {key(tri[0]), key(tri[1]), key(tri[2])};
      std::array<idx_t, 3> sorted = keyed;
      std::sort(sorted.begin(), sorted.end());
      auto it = open.find(sorted);
      if (it == open.end()) {
        open.emplace(sorted, std::make_pair(el, f));
        continue;
      }
      const auto [nel, nf] = it->second;
      open.erase(it);
      auto ntri = mesh.faceVertices(nel, nf);
      std::array<idx_t, 3> nkeyed = {key(ntri[0]), key(ntri[1]), key(ntri[2])};
      // Permutation mapping this element's face frame into the neighbor's.
      const int_t permHere = basis::findFacePermutation(keyed, nkeyed);
      const int_t permThere = basis::findFacePermutation(nkeyed, keyed);
      if (permHere < 0 || permThere < 0)
        throw std::runtime_error("buildConnectivity: face vertex sets do not match");
      const FaceKind kind = (periodic && keyed != tri) ? FaceKind::kPeriodic : FaceKind::kInterior;
      // Both directions share "interior" semantics; mark periodic if either
      // side was remapped.
      auto ntriRaw = ntri;
      const bool remapped = (keyed != tri) || (nkeyed != ntriRaw);
      const FaceKind k2 = (periodic && remapped) ? FaceKind::kPeriodic : kind;
      mesh.faces[el][f] = {nel, nf, permHere, k2};
      mesh.faces[nel][nf] = {el, f, permThere, k2};
    }
  }
  // Remaining open faces are true domain boundary.
  for (auto& [tri, loc] : open) {
    (void)tri;
    mesh.faces[loc.first][loc.second] = {-1, -1, 0, boundaryKind};
  }
}

void checkConnectivity(const TetMesh& mesh) {
  if (mesh.faces.size() != mesh.elements.size())
    throw std::runtime_error("checkConnectivity: connectivity not built");
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    for (int_t f = 0; f < 4; ++f) {
      const FaceInfo& fi = mesh.faces[el][f];
      if (fi.neighbor < 0) continue;
      const FaceInfo& back = mesh.faces[fi.neighbor][fi.neighborFace];
      if (back.neighbor != el || back.neighborFace != f)
        throw std::runtime_error("checkConnectivity: asymmetric adjacency");
      // perm composition must be the identity.
      const auto& p = basis::kFacePermutations[fi.perm];
      const auto& q = basis::kFacePermutations[back.perm];
      for (int_t m = 0; m < 3; ++m)
        if (p[q[m]] != m) throw std::runtime_error("checkConnectivity: bad permutation pair");
    }
  }
}

} // namespace nglts::mesh
