#include "mesh/gmsh_io.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace nglts::mesh {

namespace {

/// Line-oriented cursor over the stream; every error it raises carries
/// "<source>:<line>:" so malformed files are diagnosable at a glance.
class Parser {
 public:
  Parser(std::istream& in, const std::string& name) : in_(in), name_(name) {}

  idx_t line() const { return line_; }

  [[noreturn]] void fail(const std::string& msg) const { failAt(line_, msg); }

  /// `fail` for an earlier line (checks that run after the section ends).
  [[noreturn]] void failAt(idx_t line, const std::string& msg) const {
    throw std::invalid_argument(name_ + ":" + std::to_string(line) + ": " + msg);
  }

  /// Next non-empty line split into whitespace tokens; false at EOF.
  bool next(std::vector<std::string>& tokens) {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      tokens.clear();
      std::istringstream is(raw);
      std::string tok;
      while (is >> tok) tokens.push_back(tok);
      if (!tokens.empty()) {
        lastRaw_ = raw;
        return true;
      }
    }
    return false;
  }

  /// `next` inside a section: EOF is a hard error (truncated file).
  std::vector<std::string> require(const char* section) {
    std::vector<std::string> tokens;
    if (!next(tokens)) fail(std::string("unexpected end of file inside ") + section);
    return tokens;
  }

  /// Consume the "$EndX" terminator of a section.
  void requireEnd(const std::string& section) {
    const auto tokens = require(section.c_str());
    if (tokens.size() != 1 || tokens[0] != "$End" + section.substr(1))
      fail("expected $End" + section.substr(1) + ", got '" + tokens[0] + "'");
  }

  double toDouble(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const double v = std::stod(tok, &pos);
      if (pos != tok.size()) throw std::invalid_argument(tok);
      return v;
    } catch (const std::exception&) {
      fail("invalid number '" + tok + "'");
    }
  }

  idx_t toIndex(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(tok, &pos);
      if (pos != tok.size()) throw std::invalid_argument(tok);
      return static_cast<idx_t>(v);
    } catch (const std::exception&) {
      fail("invalid integer '" + tok + "'");
    }
  }

  const std::string& lastRaw() const { return lastRaw_; }

 private:
  std::istream& in_;
  std::string name_;
  idx_t line_ = 0;
  std::string lastRaw_;
};

/// Bitwise coordinate key for node deduplication (exact duplicates only —
/// the writer reproduces bit patterns, so round trips merge nothing new).
std::array<std::uint64_t, 3> coordKey(const std::array<double, 3>& x) {
  std::array<std::uint64_t, 3> k;
  std::memcpy(k.data(), x.data(), sizeof k);
  return k;
}

std::array<idx_t, 3> sortedTriple(idx_t a, idx_t b, idx_t c) {
  std::array<idx_t, 3> t = {a, b, c};
  std::sort(t.begin(), t.end());
  return t;
}

struct ReadState {
  std::unordered_map<idx_t, idx_t> nodeIndex;          ///< node tag -> vertex id
  std::map<std::array<std::uint64_t, 3>, idx_t> dedup; ///< coords -> vertex id
  std::unordered_map<idx_t, FaceKind> physKind;        ///< dim-2 physical tag -> kind
  std::unordered_map<idx_t, idx_t> surfacePhys;        ///< surface entity tag -> physical tag
  std::map<std::array<idx_t, 3>, FaceKind> triKind;    ///< sorted vertex triple -> kind
  std::vector<idx_t> tetLine;                          ///< element -> its file line
};

void parseMeshFormat(Parser& p) {
  const auto tokens = p.require("$MeshFormat");
  if (tokens.size() != 3) p.fail("$MeshFormat needs 'version file-type data-size'");
  if (tokens[0] != "4.1")
    p.fail("unsupported MSH version '" + tokens[0] + "' (this reader handles ASCII 4.1 only)");
  if (tokens[1] != "0")
    p.fail("binary .msh is not supported (file-type " + tokens[1] + "; need ASCII file-type 0)");
  p.requireEnd("$MeshFormat");
}

void parsePhysicalNames(Parser& p, ReadState& st) {
  const auto header = p.require("$PhysicalNames");
  const idx_t count = p.toIndex(header[0]);
  for (idx_t i = 0; i < count; ++i) {
    p.require("$PhysicalNames");
    const std::string& raw = p.lastRaw();
    std::istringstream is(raw);
    idx_t dim = 0, tag = 0;
    if (!(is >> dim >> tag)) p.fail("physical name needs 'dim tag \"name\"'");
    const auto open = raw.find('"');
    const auto close = raw.rfind('"');
    if (open == std::string::npos || close <= open) p.fail("physical name must be quoted");
    const std::string name = raw.substr(open + 1, close - open - 1);
    if (dim == 2) {
      // Only the two boundary conditions of the solver are meaningful;
      // other surface groups are carried as absorbing (the default).
      if (name == "free_surface" || name == "free-surface")
        st.physKind[tag] = FaceKind::kFreeSurface;
      else if (name == "absorbing")
        st.physKind[tag] = FaceKind::kAbsorbing;
    }
  }
  p.requireEnd("$PhysicalNames");
}

void parseEntities(Parser& p, ReadState& st) {
  const auto header = p.require("$Entities");
  if (header.size() != 4) p.fail("$Entities needs 'points curves surfaces volumes'");
  const idx_t nPoints = p.toIndex(header[0]);
  const idx_t nCurves = p.toIndex(header[1]);
  const idx_t nSurfaces = p.toIndex(header[2]);
  const idx_t nVolumes = p.toIndex(header[3]);
  for (idx_t i = 0; i < nPoints + nCurves; ++i) p.require("$Entities");
  for (idx_t i = 0; i < nSurfaces; ++i) {
    // tag minX minY minZ maxX maxY maxZ numPhys phys... numCurves curves...
    const auto tokens = p.require("$Entities");
    if (tokens.size() < 8) p.fail("surface entity needs at least 8 fields");
    const idx_t tag = p.toIndex(tokens[0]);
    const idx_t numPhys = p.toIndex(tokens[7]);
    if (numPhys > 0) {
      if (static_cast<idx_t>(tokens.size()) < 8 + numPhys)
        p.fail("surface entity truncated physical-tag list");
      st.surfacePhys[tag] = p.toIndex(tokens[8]);
    }
  }
  for (idx_t i = 0; i < nVolumes; ++i) p.require("$Entities");
  p.requireEnd("$Entities");
}

void parseNodes(Parser& p, TetMesh& mesh, ReadState& st) {
  const auto header = p.require("$Nodes");
  if (header.size() != 4) p.fail("$Nodes needs 'numBlocks numNodes minTag maxTag'");
  const idx_t numBlocks = p.toIndex(header[0]);
  for (idx_t b = 0; b < numBlocks; ++b) {
    const auto block = p.require("$Nodes");
    if (block.size() != 4) p.fail("node block needs 'entityDim entityTag parametric numNodes'");
    if (block[2] != "0") p.fail("parametric nodes are not supported");
    const idx_t n = p.toIndex(block[3]);
    std::vector<idx_t> tags(static_cast<std::size_t>(n));
    for (idx_t i = 0; i < n; ++i) {
      const auto t = p.require("$Nodes");
      if (t.size() != 1) p.fail("expected a single node tag per line");
      const idx_t tag = p.toIndex(t[0]);
      if (tag < 1) p.fail("node id " + std::to_string(tag) + " out of range (must be >= 1)");
      if (st.nodeIndex.count(tag)) p.fail("duplicate node id " + std::to_string(tag));
      st.nodeIndex[tag] = -1; // claimed; resolved against coordinates below
      tags[static_cast<std::size_t>(i)] = tag;
    }
    for (idx_t i = 0; i < n; ++i) {
      const auto t = p.require("$Nodes");
      if (t.size() != 3) p.fail("node coordinates need 'x y z'");
      const std::array<double, 3> x = {p.toDouble(t[0]), p.toDouble(t[1]), p.toDouble(t[2])};
      const auto [it, inserted] = st.dedup.emplace(coordKey(x), mesh.numVertices());
      if (inserted) mesh.vertices.push_back(x);
      st.nodeIndex[tags[static_cast<std::size_t>(i)]] = it->second;
    }
  }
  p.requireEnd("$Nodes");
}

void parseElements(Parser& p, TetMesh& mesh, ReadState& st) {
  const auto header = p.require("$Elements");
  if (header.size() != 4) p.fail("$Elements needs 'numBlocks numElements minTag maxTag'");
  const idx_t numBlocks = p.toIndex(header[0]);
  for (idx_t b = 0; b < numBlocks; ++b) {
    const auto block = p.require("$Elements");
    if (block.size() != 4)
      p.fail("element block needs 'entityDim entityTag elementType numElements'");
    const idx_t entityTag = p.toIndex(block[1]);
    const idx_t type = p.toIndex(block[2]);
    const idx_t n = p.toIndex(block[3]);
    idx_t nodesPerElement = 0;
    switch (type) {
      case 1: nodesPerElement = 2; break;  // 2-node line (skipped)
      case 2: nodesPerElement = 3; break;  // 3-node triangle (boundary tag)
      case 4: nodesPerElement = 4; break;  // 4-node tetrahedron
      case 15: nodesPerElement = 1; break; // 1-node point (skipped)
      default:
        p.fail("unsupported element type " + std::to_string(type) +
               " (tet-only subset: tetrahedra, boundary triangles, points, lines)");
    }
    FaceKind triangleKind = FaceKind::kAbsorbing;
    bool triangleTagged = false;
    if (type == 2) {
      const auto surf = st.surfacePhys.find(entityTag);
      if (surf != st.surfacePhys.end()) {
        const auto kind = st.physKind.find(surf->second);
        if (kind != st.physKind.end()) {
          triangleKind = kind->second;
          triangleTagged = true;
        }
      }
    }
    for (idx_t i = 0; i < n; ++i) {
      const auto t = p.require("$Elements");
      if (static_cast<idx_t>(t.size()) != 1 + nodesPerElement)
        p.fail("element of type " + std::to_string(type) + " needs " +
               std::to_string(nodesPerElement) + " node ids");
      std::array<idx_t, 4> v = {-1, -1, -1, -1};
      for (idx_t k = 0; k < nodesPerElement; ++k) {
        const idx_t tag = p.toIndex(t[static_cast<std::size_t>(1 + k)]);
        const auto it = st.nodeIndex.find(tag);
        if (it == st.nodeIndex.end())
          p.fail("unknown node id " + std::to_string(tag) + " (out of range of $Nodes)");
        v[static_cast<std::size_t>(k)] = it->second;
      }
      if (type == 4) {
        for (int a = 0; a < 4; ++a)
          for (int c = a + 1; c < 4; ++c)
            if (v[a] == v[c])
              p.fail("degenerate tetrahedron (repeated node after deduplication)");
        mesh.elements.push_back(v);
        st.tetLine.push_back(p.line());
      } else if (type == 2 && triangleTagged) {
        st.triKind[sortedTriple(v[0], v[1], v[2])] = triangleKind;
      }
    }
  }
  p.requireEnd("$Elements");
}

const char* fmt17(char (&buf)[32], double v) {
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

TetMesh readGmsh(std::istream& in, const std::string& name) {
  Parser p(in, name);
  TetMesh mesh;
  ReadState st;
  // Fallback convention when $PhysicalNames is absent: physical surface tag
  // 1 = absorbing, 2 = free surface (what `writeGmsh` emits, named).
  st.physKind[1] = FaceKind::kAbsorbing;
  st.physKind[2] = FaceKind::kFreeSurface;

  bool sawFormat = false, sawNodes = false, sawElements = false;
  std::vector<std::string> tokens;
  while (p.next(tokens)) {
    const std::string& section = tokens[0];
    if (tokens.size() != 1 || section.empty() || section[0] != '$')
      p.fail("expected a section header, got '" + section + "'");
    if (!sawFormat && section != "$MeshFormat")
      p.fail("file must start with $MeshFormat, got '" + section + "'");
    if (section == "$MeshFormat") {
      if (sawFormat) p.fail("duplicate $MeshFormat section");
      parseMeshFormat(p);
      sawFormat = true;
    } else if (section == "$PhysicalNames") {
      parsePhysicalNames(p, st);
    } else if (section == "$Entities") {
      parseEntities(p, st);
    } else if (section == "$Nodes") {
      parseNodes(p, mesh, st);
      sawNodes = true;
    } else if (section == "$Elements") {
      if (!sawNodes) p.fail("$Elements before $Nodes");
      parseElements(p, mesh, st);
      sawElements = true;
    } else {
      p.fail("unknown section '" + section +
             "' (supported: $MeshFormat, $PhysicalNames, $Entities, $Nodes, $Elements)");
    }
  }
  if (!sawFormat) p.fail("missing $MeshFormat section");
  if (!sawNodes) p.fail("missing $Nodes section");
  if (!sawElements || mesh.elements.empty()) p.fail("no tetrahedra in $Elements");

  fixOrientation(mesh);
  // After the flips every valid tet has det > 0; a flat one (four coplanar
  // nodes, or non-finite coordinates) would fail geometry setup later with
  // no file position.
  for (idx_t el = 0; el < mesh.numElements(); ++el)
    if (!(orientationDet(mesh, el) > 0.0))
      p.failAt(st.tetLine[static_cast<std::size_t>(el)],
               "degenerate tetrahedron (four coplanar nodes, zero volume)");
  buildConnectivity(mesh, {}, FaceKind::kAbsorbing);
  // Boundary triangles override the default absorbing kind; triangles that
  // match interior faces (conforming internal interfaces) are ignored.
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    for (int_t f = 0; f < 4; ++f) {
      if (mesh.faces[static_cast<std::size_t>(el)][static_cast<std::size_t>(f)].neighbor >= 0)
        continue;
      const auto fv = mesh.faceVertices(el, f);
      const auto it = st.triKind.find(sortedTriple(fv[0], fv[1], fv[2]));
      if (it != st.triKind.end())
        mesh.faces[static_cast<std::size_t>(el)][static_cast<std::size_t>(f)].kind = it->second;
    }
  }
  return mesh;
}

TetMesh readGmshFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read mesh file '" + path + "'");
  return readGmsh(in, path);
}

void writeGmsh(const TetMesh& mesh, std::ostream& out) {
  if (mesh.numElements() == 0 || mesh.faces.empty())
    throw std::invalid_argument("writeGmsh: mesh is empty or has no connectivity");

  // Collect boundary triangles by kind. Periodic identification cannot be
  // expressed in the subset (the partner vertices are distinct nodes), so a
  // periodic mesh would silently re-import as absorbing — reject instead.
  std::vector<std::array<idx_t, 3>> absorbing, freeSurface;
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    for (int_t f = 0; f < 4; ++f) {
      const FaceInfo& info = mesh.faces[static_cast<std::size_t>(el)][static_cast<std::size_t>(f)];
      if (info.kind == FaceKind::kPeriodic)
        throw std::invalid_argument(
            "writeGmsh: periodic meshes cannot be exported (vertex identification is lost)");
      if (info.neighbor >= 0) continue;
      (info.kind == FaceKind::kFreeSurface ? freeSurface : absorbing)
          .push_back(mesh.faceVertices(el, f));
    }
  }

  std::array<double, 3> lo = mesh.vertices.front(), hi = mesh.vertices.front();
  for (const auto& v : mesh.vertices)
    for (int a = 0; a < 3; ++a) {
      lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)], v[static_cast<std::size_t>(a)]);
      hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)], v[static_cast<std::size_t>(a)]);
    }
  char b[6][32];
  const auto bbox = [&]() {
    std::string s;
    for (int a = 0; a < 3; ++a) s += std::string(fmt17(b[a], lo[static_cast<std::size_t>(a)])) + " ";
    for (int a = 0; a < 3; ++a) {
      s += fmt17(b[3 + a], hi[static_cast<std::size_t>(a)]);
      if (a < 2) s += " ";
    }
    return s;
  }();

  out << "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n";
  out << "$PhysicalNames\n2\n2 1 \"absorbing\"\n2 2 \"free_surface\"\n$EndPhysicalNames\n";
  // Two surface entities (one per boundary kind, physical tags 1/2) and one
  // volume entity carry all elements; bounding boxes are informational.
  out << "$Entities\n0 0 2 1\n";
  out << "1 " << bbox << " 1 1 0\n";
  out << "2 " << bbox << " 1 2 0\n";
  out << "1 " << bbox << " 0 0\n";
  out << "$EndEntities\n";

  const idx_t nv = mesh.numVertices();
  out << "$Nodes\n1 " << nv << " 1 " << nv << "\n";
  out << "3 1 0 " << nv << "\n";
  for (idx_t i = 0; i < nv; ++i) out << (i + 1) << "\n";
  for (const auto& v : mesh.vertices) {
    char x[3][32];
    out << fmt17(x[0], v[0]) << " " << fmt17(x[1], v[1]) << " " << fmt17(x[2], v[2]) << "\n";
  }
  out << "$EndNodes\n";

  const idx_t total = static_cast<idx_t>(absorbing.size() + freeSurface.size()) + mesh.numElements();
  idx_t blocks = 1 + (absorbing.empty() ? 0 : 1) + (freeSurface.empty() ? 0 : 1);
  out << "$Elements\n" << blocks << " " << total << " 1 " << total << "\n";
  idx_t tag = 1;
  const auto writeTris = [&](idx_t entity, const std::vector<std::array<idx_t, 3>>& tris) {
    if (tris.empty()) return;
    out << "2 " << entity << " 2 " << tris.size() << "\n";
    for (const auto& t : tris)
      out << tag++ << " " << (t[0] + 1) << " " << (t[1] + 1) << " " << (t[2] + 1) << "\n";
  };
  writeTris(1, absorbing);
  writeTris(2, freeSurface);
  out << "3 1 4 " << mesh.numElements() << "\n";
  for (const auto& e : mesh.elements)
    out << tag++ << " " << (e[0] + 1) << " " << (e[1] + 1) << " " << (e[2] + 1) << " "
        << (e[3] + 1) << "\n";
  out << "$EndElements\n";
}

void writeGmshFile(const TetMesh& mesh, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write mesh file '" + path + "'");
  writeGmsh(mesh, out);
  out.flush();
  if (!out) throw std::runtime_error("failed to write mesh file '" + path + "'");
}

} // namespace nglts::mesh
