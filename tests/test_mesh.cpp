#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "basis/global_matrices.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"

namespace nm = nglts::mesh;
using nglts::FaceKind;
using nglts::idx_t;
using nglts::int_t;

namespace {

nm::BoxSpec basicSpec(idx_t nx, idx_t ny, idx_t nz, double lx = 1.0, double ly = 1.0,
                      double lz = 1.0) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, lx, nx);
  spec.planes[1] = nm::uniformPlanes(0.0, ly, ny);
  spec.planes[2] = nm::uniformPlanes(0.0, lz, nz);
  return spec;
}

} // namespace

TEST(BoxGen, ElementAndVertexCounts) {
  const auto mesh = nm::generateBox(basicSpec(3, 4, 5));
  EXPECT_EQ(mesh.numElements(), 6 * 3 * 4 * 5);
  EXPECT_EQ(mesh.numVertices(), 4 * 5 * 6);
}

TEST(BoxGen, ConnectivityValid) {
  const auto mesh = nm::generateBox(basicSpec(3, 3, 3));
  EXPECT_NO_THROW(nm::checkConnectivity(mesh));
}

TEST(BoxGen, VolumesSumToBox) {
  const auto mesh = nm::generateBox(basicSpec(4, 3, 2, 2.0, 3.0, 1.5));
  const auto geo = nm::computeGeometry(mesh);
  double vol = 0.0;
  for (const auto& g : geo) vol += g.volume;
  EXPECT_NEAR(vol, 2.0 * 3.0 * 1.5, 1e-10);
}

TEST(BoxGen, JitteredVolumesStillSumToBox) {
  auto spec = basicSpec(5, 5, 5);
  spec.jitter = 0.25;
  const auto mesh = nm::generateBox(spec);
  const auto geo = nm::computeGeometry(mesh); // throws on inverted elements
  double vol = 0.0;
  for (const auto& g : geo) vol += g.volume;
  EXPECT_NEAR(vol, 1.0, 1e-10);
  for (const auto& g : geo) EXPECT_GT(g.inradius, 0.0);
}

TEST(BoxGen, JitterDeterministic) {
  auto spec = basicSpec(3, 3, 3);
  spec.jitter = 0.2;
  const auto m1 = nm::generateBox(spec);
  const auto m2 = nm::generateBox(spec);
  ASSERT_EQ(m1.numVertices(), m2.numVertices());
  for (idx_t v = 0; v < m1.numVertices(); ++v)
    for (int_t d = 0; d < 3; ++d) EXPECT_EQ(m1.vertices[v][d], m2.vertices[v][d]);
}

TEST(BoxGen, BoundaryFaceCount) {
  const idx_t n = 3;
  const auto mesh = nm::generateBox(basicSpec(n, n, n));
  idx_t boundary = 0;
  for (idx_t el = 0; el < mesh.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f)
      if (mesh.faces[el][f].neighbor < 0) ++boundary;
  // Each cube face of the boundary has n*n cells * 2 triangles.
  EXPECT_EQ(boundary, 6 * n * n * 2);
}

TEST(BoxGen, PeriodicHasNoBoundary) {
  auto spec = basicSpec(3, 3, 3);
  spec.periodic = {true, true, true};
  const auto mesh = nm::generateBox(spec);
  for (idx_t el = 0; el < mesh.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) EXPECT_GE(mesh.faces[el][f].neighbor, 0);
  EXPECT_NO_THROW(nm::checkConnectivity(mesh));
}

TEST(BoxGen, FreeSurfaceTagging) {
  auto spec = basicSpec(3, 4, 2);
  spec.freeSurfaceTop = true;
  const auto mesh = nm::generateBox(spec);
  idx_t nFree = 0, nAbs = 0;
  for (idx_t el = 0; el < mesh.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      if (mesh.faces[el][f].kind == FaceKind::kFreeSurface) ++nFree;
      if (mesh.faces[el][f].kind == FaceKind::kAbsorbing) ++nAbs;
    }
  EXPECT_EQ(nFree, 3 * 4 * 2); // two triangles per top cell
  EXPECT_EQ(nAbs, 2 * (3 * 4 + 3 * 2 + 4 * 2) * 2 - 3 * 4 * 2);
}

TEST(BoxGen, GradedPlanesRefine) {
  const auto planes = nm::gradedPlanes(0.0, 10.0, [](double x) { return x < 2.0 ? 0.25 : 1.0; });
  EXPECT_NEAR(planes.front(), 0.0, 0.0);
  EXPECT_NEAR(planes.back(), 10.0, 1e-12);
  for (std::size_t i = 1; i < planes.size(); ++i) EXPECT_GT(planes[i], planes[i - 1]);
  // Spacing in the refined zone must be smaller than in the coarse zone.
  const double hFine = planes[1] - planes[0];
  const double hCoarse = planes[planes.size() - 1] - planes[planes.size() - 2];
  EXPECT_LT(hFine, 0.5 * hCoarse);
}

TEST(Geometry, ReferenceMappingRoundTrip) {
  auto spec = basicSpec(2, 2, 2);
  spec.jitter = 0.2;
  const auto mesh = nm::generateBox(spec);
  const auto geo = nm::computeGeometry(mesh);
  for (idx_t el = 0; el < std::min<idx_t>(mesh.numElements(), 12); ++el) {
    const std::array<double, 3> xi = {0.2, 0.3, 0.25};
    // Map to physical and back.
    std::array<double, 3> x = mesh.vertices[mesh.elements[el][0]];
    for (int_t r = 0; r < 3; ++r)
      for (int_t c = 0; c < 3; ++c) x[r] += geo[el].jac[r][c] * xi[c];
    const auto xiBack = nm::physicalToReference(mesh, geo[el], el, x);
    for (int_t d = 0; d < 3; ++d) EXPECT_NEAR(xiBack[d], xi[d], 1e-12);
  }
}

TEST(Geometry, OutwardNormals) {
  const auto mesh = nm::generateBox(basicSpec(2, 2, 2));
  const auto geo = nm::computeGeometry(mesh);
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    const auto cen = mesh.centroid(el);
    for (int_t f = 0; f < 4; ++f) {
      // Face centroid.
      const auto tri = mesh.faceVertices(el, f);
      std::array<double, 3> fc = {0, 0, 0};
      for (idx_t v : tri)
        for (int_t d = 0; d < 3; ++d) fc[d] += mesh.vertices[v][d] / 3.0;
      double d = 0.0;
      for (int_t c = 0; c < 3; ++c) d += (fc[c] - cen[c]) * geo[el].face[f].normal[c];
      EXPECT_GT(d, 0.0);
    }
  }
}

TEST(Geometry, TangentFrameOrthonormal) {
  auto spec = basicSpec(2, 2, 2);
  spec.jitter = 0.15;
  const auto mesh = nm::generateBox(spec);
  const auto geo = nm::computeGeometry(mesh);
  for (idx_t el = 0; el < 8; ++el)
    for (int_t f = 0; f < 4; ++f) {
      const auto& fg = geo[el].face[f];
      auto dot = [](const std::array<double, 3>& a, const std::array<double, 3>& b) {
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
      };
      EXPECT_NEAR(dot(fg.normal, fg.normal), 1.0, 1e-12);
      EXPECT_NEAR(dot(fg.tangent1, fg.tangent1), 1.0, 1e-12);
      EXPECT_NEAR(dot(fg.tangent2, fg.tangent2), 1.0, 1e-12);
      EXPECT_NEAR(dot(fg.normal, fg.tangent1), 0.0, 1e-12);
      EXPECT_NEAR(dot(fg.normal, fg.tangent2), 0.0, 1e-12);
      EXPECT_NEAR(dot(fg.tangent1, fg.tangent2), 0.0, 1e-12);
    }
}

TEST(Geometry, FaceAreasConsistentAcrossNeighbors) {
  auto spec = basicSpec(3, 3, 3);
  spec.jitter = 0.2;
  const auto mesh = nm::generateBox(spec);
  const auto geo = nm::computeGeometry(mesh);
  for (idx_t el = 0; el < mesh.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      const auto& fi = mesh.faces[el][f];
      if (fi.neighbor < 0) continue;
      EXPECT_NEAR(geo[el].face[f].area, geo[fi.neighbor].face[fi.neighborFace].area, 1e-12);
    }
}

TEST(Geometry, FlatTetIsANamedError) {
  // Element 1 is flat (its fourth vertex lies in the z = 0 plane of the
  // other three). The error leaves the threaded loop as an exception that
  // names the element instead of terminating the process.
  nm::TetMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}};
  mesh.elements = {{0, 1, 2, 3}, {0, 1, 2, 4}};
  try {
    nm::computeGeometry(mesh);
    FAIL() << "expected std::runtime_error for the flat element";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("element 1:"), std::string::npos) << e.what();
  }
}

TEST(Geometry, LocatePoint) {
  const auto mesh = nm::generateBox(basicSpec(3, 3, 3));
  const auto geo = nm::computeGeometry(mesh);
  const std::array<double, 3> x = {0.4, 0.55, 0.2};
  const idx_t el = nm::locatePoint(mesh, geo, x);
  ASSERT_GE(el, 0);
  EXPECT_TRUE(nm::insideReference(nm::physicalToReference(mesh, geo[el], el, x)));
}
