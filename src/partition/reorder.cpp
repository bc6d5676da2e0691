#include "partition/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nglts::partition {

bool hasHaloFace(const mesh::TetMesh& mesh, idx_t e, const std::vector<int_t>& part,
                 int_t rank) {
  if (part.empty()) return false;
  for (int_t f = 0; f < 4; ++f) {
    const idx_t nb = mesh.faces[e][f].neighbor;
    if (nb >= 0 && part[nb] != rank) return true;
  }
  return false;
}

namespace {

/// Sum of |newId[e] - newId[nb]| over intra-block faces — the locality
/// cost the neighbor phase's cache behaviour depends on. `localId` maps a
/// block's elements to their position within the block.
double intraBlockDistance(const mesh::TetMesh& mesh, const std::vector<int_t>& blockOf,
                          const std::vector<idx_t>& order,
                          std::vector<idx_t>& localId /* scratch, size n */) {
  for (std::size_t i = 0; i < order.size(); ++i) localId[order[i]] = static_cast<idx_t>(i);
  double sum = 0.0;
  for (idx_t e : order)
    for (int_t f = 0; f < 4; ++f) {
      const idx_t nb = mesh.faces[e][f].neighbor;
      if (nb >= 0 && blockOf[nb] == blockOf[e])
        sum += std::abs(static_cast<double>(localId[e] - localId[nb]));
    }
  return sum;
}

} // namespace

Reordering buildClusterReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& cluster,
                                  const std::vector<int_t>& part, int_t rank) {
  const idx_t n = mesh.numElements();
  if (!part.empty() && static_cast<idx_t>(part.size()) != n)
    throw std::invalid_argument("buildClusterReordering: partition size != element count");
  int_t nc = 0;
  for (idx_t e = 0; e < n; ++e) nc = std::max(nc, cluster[e] + 1);

  // Sub-block of each owned element (-1 elsewhere): its cluster, split into
  // interior (role 0) then halo boundary (role 1). Base ordering is a
  // stable sort by sub-block, preserving the mesh generator's numbering
  // inside each one (already near-banded for graded boxes).
  std::vector<int_t> blockOf(n, -1);
  std::vector<std::vector<idx_t>> blocks(2 * static_cast<std::size_t>(nc));
  for (idx_t e = 0; e < n; ++e) {
    if (!part.empty() && part[e] != rank) continue;
    blockOf[e] = 2 * cluster[e] + (hasHaloFace(mesh, e, part, rank) ? 1 : 0);
    blocks[blockOf[e]].push_back(e);
  }

  Reordering r;
  std::vector<idx_t> localId(n, 0);
  std::vector<char> visited;
  std::vector<idx_t> bfs;
  for (int_t k = 0; k < 2 * nc; ++k) {
    auto& block = blocks[k];
    if (block.size() > 2) {
      // Candidate: BFS over the intra-block dual graph, seeded from the
      // lowest unvisited id (deterministic) — an element and its
      // same-block face-neighbors end up within a frontier of each other.
      // Keep it only if it beats the preserved input order on the summed
      // neighbor distance; for meshes with poor native numbering BFS wins,
      // for generator-ordered boxes the input order usually does.
      visited.assign(n, 0);
      bfs.clear();
      bfs.reserve(block.size());
      for (idx_t seed : block) {
        if (visited[seed]) continue;
        std::size_t head = bfs.size();
        bfs.push_back(seed);
        visited[seed] = 1;
        for (; head < bfs.size(); ++head) {
          const idx_t e = bfs[head];
          for (int_t f = 0; f < 4; ++f) {
            const idx_t nb = mesh.faces[e][f].neighbor;
            if (nb >= 0 && blockOf[nb] == k && !visited[nb]) {
              bfs.push_back(nb);
              visited[nb] = 1;
            }
          }
        }
      }
      if (intraBlockDistance(mesh, blockOf, bfs, localId) <
          intraBlockDistance(mesh, blockOf, block, localId))
        block.swap(bfs);
    }
    r.oldId.insert(r.oldId.end(), block.begin(), block.end());
  }
  r.numOwned = static_cast<idx_t>(r.oldId.size());

  // Halo: remote face-neighbors of owned elements, first-encounter order
  // over ascending owned global id.
  r.newId.assign(n, -1);
  for (idx_t i = 0; i < r.numOwned; ++i) r.newId[r.oldId[i]] = i;
  for (idx_t e = 0; e < n; ++e) {
    if (blockOf[e] < 0) continue;
    for (int_t f = 0; f < 4; ++f) {
      const idx_t nb = mesh.faces[e][f].neighbor;
      if (nb >= 0 && r.newId[nb] < 0) {
        r.newId[nb] = static_cast<idx_t>(r.oldId.size());
        r.oldId.push_back(nb);
      }
    }
  }
  return r;
}

std::vector<idx_t> clusterRanges(const std::vector<int_t>& clusterNewOrder, int_t numClusters) {
  const idx_t n = static_cast<idx_t>(clusterNewOrder.size());
  std::vector<idx_t> offsets(numClusters + 1, 0);
  for (idx_t e = 0; e < n; ++e) {
    const int_t c = clusterNewOrder[e];
    if (c < 0 || c >= numClusters)
      throw std::runtime_error("clusterRanges: cluster id out of range");
    if (e > 0 && c < clusterNewOrder[e - 1])
      throw std::runtime_error("clusterRanges: ordering is not cluster-contiguous");
    ++offsets[c + 1];
  }
  for (int_t c = 0; c < numClusters; ++c) offsets[c + 1] += offsets[c];
  return offsets;
}

mesh::TetMesh applyReordering(const mesh::TetMesh& mesh, const Reordering& r) {
  mesh::TetMesh out;
  out.vertices = mesh.vertices;
  const idx_t n = static_cast<idx_t>(r.oldId.size());
  out.elements.resize(n);
  out.faces.resize(n);
  for (idx_t e = 0; e < n; ++e) {
    const idx_t src = r.oldId[e];
    out.elements[e] = mesh.elements[src];
    out.faces[e] = mesh.faces[src];
    for (mesh::FaceInfo& fi : out.faces[e]) {
      if (fi.neighbor < 0) continue;
      const idx_t nb = r.newId[fi.neighbor];
      if (nb >= 0 && (e < r.numOwned || nb < r.numOwned)) {
        fi.neighbor = nb;
      } else {
        fi.neighbor = -1;
        fi.neighborFace = -1;
        fi.kind = FaceKind::kAbsorbing;
      }
    }
  }
  return out;
}

} // namespace nglts::partition
