#pragma once
// Gmsh ASCII `.msh` (format 4.1) import/export, restricted to the solver's
// substrate: linear tetrahedra (element type 4) plus boundary triangles
// (element type 2) carrying boundary conditions. The supported subset:
//
//   $MeshFormat      — "4.1 0 8" only (ASCII; binary files are rejected)
//   $PhysicalNames   — dim-2 groups named "absorbing" / "free_surface" map
//                      to the matching FaceKind; without this section the
//                      convention is physical tag 1 = absorbing,
//                      2 = free_surface
//   $Entities        — surface entities resolve their physical group; the
//                      bounding boxes and curve/point/volume entities are
//                      ignored
//   $Nodes           — entity blocks with arbitrary (positive, unique) node
//                      tags; parametric nodes are rejected. Nodes with
//                      bitwise-identical coordinates are deduplicated.
//   $Elements        — tetrahedra become mesh elements (in file order);
//                      triangles tag boundary faces via their surface
//                      entity's physical group; points/lines are skipped;
//                      every other element type is rejected (tet-only)
//
// Any other section, a version/format mismatch, truncation, duplicate or
// unknown node tags, or degenerate tetrahedra (a repeated node, or four
// coplanar nodes) raise `std::invalid_argument` with the offending location
// ("<source>:<line>: message") — malformed input is never imported
// partially.
//
// The writer emits this exact subset (one node block, per-kind triangle
// blocks, 17-significant-digit coordinates), so a `box_gen` mesh exported
// with `writeGmsh` re-imports bitwise-identically: same vertex array, same
// element array, same connectivity and face kinds. Periodic meshes cannot be
// exported (the vertex identification is not representable in the subset).
#include <iosfwd>
#include <string>

#include "mesh/tet_mesh.hpp"

namespace nglts::mesh {

/// Parse a Gmsh 4.1 ASCII stream; `name` labels parse errors. Connectivity
/// is built and orientation fixed before returning.
TetMesh readGmsh(std::istream& in, const std::string& name = "<msh>");

/// `readGmsh` over a file; errors are prefixed with the path.
TetMesh readGmshFile(const std::string& path);

/// Write `mesh` in the subset described above. Throws `std::invalid_argument`
/// for periodic meshes and `std::runtime_error` on I/O failure.
void writeGmsh(const TetMesh& mesh, std::ostream& out);

/// `writeGmsh` into a file (truncating).
void writeGmshFile(const TetMesh& mesh, const std::string& path);

} // namespace nglts::mesh
