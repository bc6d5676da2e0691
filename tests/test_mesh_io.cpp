// Conformance and property tests of the Gmsh .msh 4.1 importer/exporter
// (mesh/gmsh_io.hpp): the structural round-trip guarantee (export → import is
// bitwise-identical down to the connectivity), the node-deduplication and
// boundary-tag mapping rules, the malformed-input matrix (every rejection is
// a line-numbered std::invalid_argument), and the end-to-end property the
// subset exists for — a scenario re-run on its own exported mesh reproduces
// the seismogram bitwise, under GTS and LTS alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/scenario.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/gmsh_io.hpp"

namespace nm = nglts::mesh;
using nglts::FaceKind;
using nglts::idx_t;
using nglts::int_t;

namespace {

/// A jittered graded box with a free surface — the structurally hardest mesh
/// the generator produces (irregular coordinates, mixed boundary kinds).
nm::TetMesh makeJitteredBox() {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, 4);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, 3);
  spec.planes[2] = nm::gradedPlanes(-1000.0, 0.0, [](double z) {
    return z > -400.0 ? 180.0 : 320.0;
  });
  spec.jitter = 0.2;
  spec.freeSurfaceTop = true;
  return nm::generateBox(spec);
}

void expectMeshesIdentical(const nm::TetMesh& a, const nm::TetMesh& b) {
  ASSERT_EQ(a.numVertices(), b.numVertices());
  ASSERT_EQ(a.numElements(), b.numElements());
  // Bitwise vertex comparison (memcmp, not ==: -0.0 vs 0.0 must not pass).
  for (idx_t v = 0; v < a.numVertices(); ++v)
    EXPECT_EQ(std::memcmp(a.vertices[v].data(), b.vertices[v].data(), 3 * sizeof(double)), 0)
        << "vertex " << v;
  EXPECT_EQ(a.elements, b.elements);
  for (idx_t el = 0; el < a.numElements(); ++el) {
    for (int_t f = 0; f < 4; ++f) {
      const nm::FaceInfo& fa = a.faces[el][f];
      const nm::FaceInfo& fb = b.faces[el][f];
      EXPECT_EQ(fa.neighbor, fb.neighbor) << "el " << el << " face " << f;
      EXPECT_EQ(fa.neighborFace, fb.neighborFace) << "el " << el << " face " << f;
      EXPECT_EQ(fa.perm, fb.perm) << "el " << el << " face " << f;
      EXPECT_EQ(fa.kind, fb.kind) << "el " << el << " face " << f;
    }
  }
}

/// Parse `content` expecting a line-numbered rejection: the message must
/// carry the "<source>:<line>:" prefix and the given needle.
void expectParseError(const std::string& content, const std::string& needle,
                      idx_t expectedLine = -1) {
  std::istringstream in(content);
  try {
    nm::readGmsh(in, "test.msh");
    FAIL() << "expected std::invalid_argument for: " << needle;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test.msh:"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    if (expectedLine >= 0)
      EXPECT_NE(what.find("test.msh:" + std::to_string(expectedLine) + ":"), std::string::npos)
          << "wrong line number in: " << what;
  }
}

/// Minimal valid single-tet mesh in the supported subset.
const char* kSingleTet =
    "$MeshFormat\n"
    "4.1 0 8\n"
    "$EndMeshFormat\n"
    "$Nodes\n"
    "1 4 1 4\n"
    "3 1 0 4\n"
    "1\n2\n3\n4\n"
    "0 0 0\n"
    "1 0 0\n"
    "0 1 0\n"
    "0 0 1\n"
    "$EndNodes\n"
    "$Elements\n"
    "1 1 1 1\n"
    "3 1 4 1\n"
    "1 1 2 3 4\n"
    "$EndElements\n";

} // namespace

// ---------------------------------------------------------------------------
// Round trip: export → import preserves the mesh bitwise
// ---------------------------------------------------------------------------

TEST(GmshRoundTrip, JitteredBoxIsBitwiseIdentical) {
  const nm::TetMesh original = makeJitteredBox();
  std::stringstream ms;
  nm::writeGmsh(original, ms);
  const nm::TetMesh reread = nm::readGmsh(ms, "roundtrip.msh");
  expectMeshesIdentical(original, reread);
}

TEST(GmshRoundTrip, SecondGenerationIsStable) {
  // write(read(write(m))) == write(m): the emitted bytes are a fixed point.
  const nm::TetMesh original = makeJitteredBox();
  std::stringstream first;
  nm::writeGmsh(original, first);
  const std::string bytes1 = first.str();
  std::istringstream in(bytes1);
  const nm::TetMesh reread = nm::readGmsh(in, "gen2.msh");
  std::stringstream second;
  nm::writeGmsh(reread, second);
  EXPECT_EQ(bytes1, second.str());
}

TEST(GmshRoundTrip, FreeSurfaceTagsSurvive) {
  const nm::TetMesh original = makeJitteredBox();
  idx_t freeFaces = 0, absorbingFaces = 0;
  for (idx_t el = 0; el < original.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      if (original.faces[el][f].kind == FaceKind::kFreeSurface) ++freeFaces;
      if (original.faces[el][f].neighbor < 0 &&
          original.faces[el][f].kind == FaceKind::kAbsorbing)
        ++absorbingFaces;
    }
  ASSERT_GT(freeFaces, 0);   // the spec tags the top
  ASSERT_GT(absorbingFaces, 0);

  std::stringstream ms;
  nm::writeGmsh(original, ms);
  const nm::TetMesh reread = nm::readGmsh(ms, "tags.msh");
  idx_t freeReread = 0, absorbingReread = 0;
  for (idx_t el = 0; el < reread.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      if (reread.faces[el][f].kind == FaceKind::kFreeSurface) ++freeReread;
      if (reread.faces[el][f].neighbor < 0 && reread.faces[el][f].kind == FaceKind::kAbsorbing)
        ++absorbingReread;
    }
  EXPECT_EQ(freeFaces, freeReread);
  EXPECT_EQ(absorbingFaces, absorbingReread);
}

// ---------------------------------------------------------------------------
// Import semantics: dedup, boundary mapping, file errors
// ---------------------------------------------------------------------------

TEST(GmshImport, ParsesMinimalSingleTet) {
  std::istringstream in(kSingleTet);
  const nm::TetMesh mesh = nm::readGmsh(in, "tet.msh");
  EXPECT_EQ(mesh.numVertices(), 4);
  EXPECT_EQ(mesh.numElements(), 1);
  // No boundary triangles: every face is a boundary with the absorbing default.
  for (int_t f = 0; f < 4; ++f) {
    EXPECT_EQ(mesh.faces[0][f].neighbor, -1);
    EXPECT_EQ(mesh.faces[0][f].kind, FaceKind::kAbsorbing);
  }
}

TEST(GmshImport, DeduplicatesBitwiseIdenticalNodes) {
  // Node tag 5 repeats the coordinates of tag 1; two tets share the merged
  // vertex and become face neighbors.
  const char* content =
      "$MeshFormat\n"
      "4.1 0 8\n"
      "$EndMeshFormat\n"
      "$Nodes\n"
      "1 6 1 6\n"
      "3 1 0 6\n"
      "1\n2\n3\n4\n5\n6\n"
      "0 0 0\n"
      "1 0 0\n"
      "0 1 0\n"
      "0 0 1\n"
      "0 0 0\n"
      "0 0 -1\n"
      "$EndNodes\n"
      "$Elements\n"
      "1 2 1 2\n"
      "3 1 4 2\n"
      "1 1 2 3 4\n"
      "2 5 2 3 6\n"
      "$EndElements\n";
  std::istringstream in(content);
  const nm::TetMesh mesh = nm::readGmsh(in, "dedup.msh");
  EXPECT_EQ(mesh.numVertices(), 5); // 6 tags, one coordinate-duplicate merged
  ASSERT_EQ(mesh.numElements(), 2);
  idx_t interior = 0;
  for (idx_t el = 0; el < 2; ++el)
    for (int_t f = 0; f < 4; ++f)
      if (mesh.faces[el][f].neighbor >= 0) ++interior;
  EXPECT_EQ(interior, 2); // the shared {0,1,2} face, seen from both sides
}

TEST(GmshImport, MapsNamedPhysicalSurfacesToFaceKinds) {
  // One tet; the z = 0 face {1,2,3} sits on a surface entity whose physical
  // group is named free_surface under a non-conventional tag (7).
  const char* content =
      "$MeshFormat\n"
      "4.1 0 8\n"
      "$EndMeshFormat\n"
      "$PhysicalNames\n"
      "1\n"
      "2 7 \"free_surface\"\n"
      "$EndPhysicalNames\n"
      "$Entities\n"
      "0 0 1 1\n"
      "1 0 0 0 1 1 0 1 7 0\n"
      "1 0 0 0 1 1 1 0 0\n"
      "$EndEntities\n"
      "$Nodes\n"
      "1 4 1 4\n"
      "3 1 0 4\n"
      "1\n2\n3\n4\n"
      "0 0 0\n"
      "1 0 0\n"
      "0 1 0\n"
      "0 0 1\n"
      "$EndNodes\n"
      "$Elements\n"
      "2 2 1 2\n"
      "2 1 2 1\n"
      "1 1 2 3\n"
      "3 1 4 1\n"
      "2 1 2 3 4\n"
      "$EndElements\n";
  std::istringstream in(content);
  const nm::TetMesh mesh = nm::readGmsh(in, "phys.msh");
  ASSERT_EQ(mesh.numElements(), 1);
  idx_t freeFaces = 0;
  for (int_t f = 0; f < 4; ++f)
    if (mesh.faces[0][f].kind == FaceKind::kFreeSurface) ++freeFaces;
  EXPECT_EQ(freeFaces, 1);
}

TEST(GmshImport, FallbackConventionTagsWithoutPhysicalNames) {
  // No $PhysicalNames: physical tag 2 = free_surface by convention.
  const char* content =
      "$MeshFormat\n"
      "4.1 0 8\n"
      "$EndMeshFormat\n"
      "$Entities\n"
      "0 0 1 1\n"
      "1 0 0 0 1 1 0 1 2 0\n"
      "1 0 0 0 1 1 1 0 0\n"
      "$EndEntities\n"
      "$Nodes\n"
      "1 4 1 4\n"
      "3 1 0 4\n"
      "1\n2\n3\n4\n"
      "0 0 0\n"
      "1 0 0\n"
      "0 1 0\n"
      "0 0 1\n"
      "$EndNodes\n"
      "$Elements\n"
      "2 2 1 2\n"
      "2 1 2 1\n"
      "1 1 2 3\n"
      "3 1 4 1\n"
      "2 1 2 3 4\n"
      "$EndElements\n";
  std::istringstream in(content);
  const nm::TetMesh mesh = nm::readGmsh(in, "fallback.msh");
  idx_t freeFaces = 0;
  for (int_t f = 0; f < 4; ++f)
    if (mesh.faces[0][f].kind == FaceKind::kFreeSurface) ++freeFaces;
  EXPECT_EQ(freeFaces, 1);
}

TEST(GmshImport, MissingFileThrows) {
  EXPECT_THROW(nm::readGmshFile("/nonexistent/no-such.msh"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conformance matrix: every malformed input is a line-numbered rejection
// ---------------------------------------------------------------------------

TEST(GmshConformance, RejectsWrongVersion) {
  expectParseError("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n", "unsupported MSH version", 2);
}

TEST(GmshConformance, RejectsBinaryFiles) {
  expectParseError("$MeshFormat\n4.1 1 8\n$EndMeshFormat\n", "binary .msh is not supported", 2);
}

TEST(GmshConformance, RejectsUnknownSection) {
  expectParseError("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Periodic\n", "unknown section", 4);
}

TEST(GmshConformance, RejectsFileNotStartingWithMeshFormat) {
  expectParseError("$Nodes\n", "must start with $MeshFormat", 1);
}

TEST(GmshConformance, RejectsTruncatedFile) {
  expectParseError(
      "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"
      "$Nodes\n1 4 1 4\n3 1 0 4\n1\n2\n",
      "unexpected end of file");
}

TEST(GmshConformance, RejectsNonTetVolumeElements) {
  // Element type 5 = 8-node hexahedron.
  std::string content(kSingleTet);
  const auto pos = content.find("3 1 4 1\n1 1 2 3 4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, std::strlen("3 1 4 1\n1 1 2 3 4\n"), "3 1 5 1\n1 1 2 3 4 1 2 3 4\n");
  expectParseError(content, "unsupported element type 5", 18);
}

TEST(GmshConformance, RejectsDuplicateNodeTags) {
  std::string content(kSingleTet);
  const auto pos = content.find("1\n2\n3\n4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 8, "1\n2\n3\n1\n");
  expectParseError(content, "duplicate node id 1", 10);
}

TEST(GmshConformance, RejectsOutOfRangeNodeTags) {
  std::string content(kSingleTet);
  const auto pos = content.find("1\n2\n3\n4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 8, "0\n2\n3\n4\n");
  expectParseError(content, "node id 0 out of range", 7);
}

TEST(GmshConformance, RejectsUnknownNodeReferences) {
  std::string content(kSingleTet);
  const auto pos = content.find("1 1 2 3 4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 10, "1 1 2 3 9\n");
  expectParseError(content, "unknown node id 9", 19);
}

TEST(GmshConformance, RejectsParametricNodes) {
  std::string content(kSingleTet);
  const auto pos = content.find("3 1 0 4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 8, "3 1 1 4\n");
  expectParseError(content, "parametric nodes are not supported", 6);
}

TEST(GmshConformance, RejectsDegenerateTets) {
  std::string content(kSingleTet);
  const auto pos = content.find("1 1 2 3 4\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 10, "1 1 2 3 3\n");
  expectParseError(content, "degenerate tetrahedron (repeated node", 19);
  // Node 5 lies in the plane of nodes 1-3, so the second tet is flat (zero
  // volume in either orientation); the error points at its element line.
  expectParseError(
      "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"
      "$Nodes\n1 5 1 5\n3 1 0 5\n1\n2\n3\n4\n5\n"
      "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n$EndNodes\n"
      "$Elements\n1 2 1 2\n3 1 4 2\n1 1 2 3 4\n2 1 2 3 5\n$EndElements\n",
      "degenerate tetrahedron (four coplanar nodes", 22);
}

TEST(GmshConformance, RejectsSliverTets) {
  // One coordinate set to 2^32 + 1 (a hostile-input probe): the tet keeps a
  // positive volume, but as a needle its CFL step would make the run take
  // effectively forever. The error points at its element line.
  std::string content(kSingleTet);
  const auto pos = content.find("0 0 1\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 6, "0 0 4294967297\n");
  expectParseError(content, "sliver tetrahedron", 19);

  // The same mutation on one node of an exported jittered box names the
  // first tet in file order that uses the node.
  const nm::TetMesh box = makeJitteredBox();
  std::ostringstream out;
  nm::writeGmsh(box, out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const idx_t nv = box.numVertices(), node = nv / 2;
  const auto nodes = std::find(lines.begin(), lines.end(), "$Nodes") - lines.begin();
  std::string& coords = lines[static_cast<std::size_t>(nodes + 3 + nv + node)];
  coords = "4294967297" + coords.substr(coords.find(' '));
  const auto tets =
      std::find(lines.begin(), lines.end(), "3 1 4 " + std::to_string(box.numElements())) -
      lines.begin();
  idx_t first = -1;
  for (auto k = tets + 1; first < 0 && k <= tets + box.numElements(); ++k) {
    std::istringstream tet(lines[static_cast<std::size_t>(k)]);
    idx_t tag = 0, v = 0;
    tet >> tag;
    while (tet >> v)
      if (v == node + 1) first = k + 1; // 1-based line number
  }
  ASSERT_GT(first, 0);
  std::string mutated;
  for (const std::string& line : lines) mutated += line + "\n";
  expectParseError(mutated, "sliver tetrahedron", first);
}

TEST(GmshConformance, RejectsMeshWithoutNodes) {
  expectParseError("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n", "missing $Nodes");
}

TEST(GmshConformance, RejectsMeshWithoutTets) {
  expectParseError(
      "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"
      "$Nodes\n1 1 1 1\n3 1 0 1\n1\n0 0 0\n$EndNodes\n",
      "no tetrahedra");
}

TEST(GmshConformance, RejectsMissingSectionTerminator) {
  expectParseError("$MeshFormat\n4.1 0 8\n$Wrong\n", "expected $EndMeshFormat", 3);
}

TEST(GmshConformance, RejectsInvalidNumbers) {
  std::string content(kSingleTet);
  const auto pos = content.find("0 0 1\n");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 6, "0 0 x\n");
  expectParseError(content, "invalid number 'x'", 14);
}

// ---------------------------------------------------------------------------
// Export restrictions
// ---------------------------------------------------------------------------

TEST(GmshExport, RejectsPeriodicMeshes) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 3);
  spec.periodic = {true, true, true};
  const nm::TetMesh periodic = nm::generateBox(spec);
  std::stringstream ms;
  EXPECT_THROW(nm::writeGmsh(periodic, ms), std::invalid_argument);
}

TEST(GmshExport, RejectsEmptyMesh) {
  std::stringstream ms;
  EXPECT_THROW(nm::writeGmsh(nm::TetMesh{}, ms), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The end-to-end property: a scenario re-run on its own exported mesh
// reproduces the seismogram bitwise, under GTS and LTS alike
// ---------------------------------------------------------------------------

namespace {

std::vector<double> runQuickstart(const nglts::cli::ScenarioOptions& opts) {
  const nglts::cli::Scenario* s = nglts::cli::findScenario("quickstart");
  EXPECT_NE(s, nullptr);
  const nglts::cli::ScenarioReport report = s->run(opts);
  EXPECT_FALSE(report.trace.empty());
  return report.trace;
}

void expectImportReproducesRun(nglts::solver::TimeScheme scheme, const char* label) {
  const std::string meshPath = ::testing::TempDir() + "nglts_roundtrip_" + label + ".msh";
  nglts::cli::ScenarioOptions opts;
  opts.order = 3;
  opts.scheme = scheme;
  opts.meshScale = 0.35;
  opts.endTime = 0.3;
  opts.lambda = 0.9; // pin the sweep so both runs resolve identical clustering
  opts.quiet = true;
  opts.writeMesh = meshPath;
  const std::vector<double> builtin = runQuickstart(opts);

  nglts::cli::ScenarioOptions reopts = opts;
  reopts.writeMesh.clear();
  reopts.meshFile = meshPath;
  const std::vector<double> imported = runQuickstart(reopts);
  std::remove(meshPath.c_str());

  ASSERT_EQ(builtin.size(), imported.size());
  for (std::size_t i = 0; i < builtin.size(); ++i)
    EXPECT_EQ(builtin[i], imported[i]) << label << " sample " << i;
}

} // namespace

TEST(GmshScenarioRoundTrip, QuickstartGtsSeismogramBitwiseIdentical) {
  expectImportReproducesRun(nglts::solver::TimeScheme::kGts, "gts");
}

TEST(GmshScenarioRoundTrip, QuickstartLtsSeismogramBitwiseIdentical) {
  expectImportReproducesRun(nglts::solver::TimeScheme::kLtsNextGen, "lts");
}

TEST(GmshScenarioRoundTrip, BuiltinReceiversOutsideAnImportedMeshAreErrors) {
  // A 500 m box with a fault inside it: every scenario's built-in receiver
  // lies beyond the box, which must fail loudly, naming the scenario and the
  // receiver position — on one rank and on several, never a run without a
  // seismogram or an unrelated out_of_range.
  const std::string meshPath = ::testing::TempDir() + "nglts_small_box.msh";
  const std::string faultPath = ::testing::TempDir() + "nglts_small_box_fault.txt";
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 500.0, 3);
  spec.planes[1] = nm::uniformPlanes(0.0, 500.0, 3);
  spec.planes[2] = nm::uniformPlanes(-500.0, 0.0, 3);
  spec.freeSurfaceTop = true;
  nm::writeGmshFile(nm::generateBox(spec), meshPath);
  {
    std::ofstream fault(faultPath);
    fault << "subfault\nposition 250 250 -250\nmoment 0 0 0 1e9 0 0\n"
             "stf 0.0 0.0\nstf 0.1 1.0\nstf 0.4 0.0\n";
  }

  struct Case {
    const char* scenario;
    int_t ranks;
    const char* receiver;
  };
  for (const Case& c : {Case{"quickstart", 1, "(800, 750, -20)"},
                        Case{"loh3", 1, "(4800, 4200, -20)"},
                        Case{"loh1", 2, "(4800, 4200, -20)"},
                        Case{"fused", 2, "(1600, 1500, -30)"}}) {
    const nglts::cli::Scenario* s = nglts::cli::findScenario(c.scenario);
    ASSERT_NE(s, nullptr);
    nglts::cli::ScenarioOptions opts;
    opts.meshFile = meshPath;
    opts.faultFile = faultPath;
    opts.order = 2;
    opts.endTime = 0.05;
    opts.lambda = 1.0;
    opts.ranks = c.ranks;
    opts.quiet = true;
    try {
      s->run(opts);
      ADD_FAILURE() << c.scenario << ": a receiver outside the mesh was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + c.scenario + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(c.receiver), std::string::npos) << what;
      EXPECT_NE(what.find("outside the mesh"), std::string::npos) << what;
    }
  }
  std::remove(meshPath.c_str());
  std::remove(faultPath.c_str());
}
