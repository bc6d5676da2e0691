#include "partition/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nglts::partition {

Reordering buildReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& part,
                           const std::vector<int_t>& cluster) {
  const idx_t n = mesh.numElements();
  std::vector<int_t> commRole(n, 0);
  for (idx_t e = 0; e < n; ++e)
    for (int_t f = 0; f < 4; ++f) {
      const idx_t nb = mesh.faces[e][f].neighbor;
      if (nb >= 0 && part[nb] != part[e]) commRole[e] = 1;
    }

  Reordering r;
  r.oldId.resize(n);
  std::iota(r.oldId.begin(), r.oldId.end(), idx_t{0});
  std::stable_sort(r.oldId.begin(), r.oldId.end(), [&](idx_t a, idx_t b) {
    if (part[a] != part[b]) return part[a] < part[b];
    if (cluster[a] != cluster[b]) return cluster[a] < cluster[b];
    return commRole[a] < commRole[b];
  });
  r.newId.resize(n);
  for (idx_t e = 0; e < n; ++e) r.newId[r.oldId[e]] = e;
  return r;
}

bool hasHaloFace(const mesh::TetMesh& mesh, idx_t e, idx_t numOwned) {
  for (int_t f = 0; f < 4; ++f)
    if (mesh.faces[e][f].neighbor >= numOwned) return true;
  return false;
}

namespace {

/// Sum of |newId[e] - newId[nb]| over intra-block faces — the locality
/// cost the neighbor phase's cache behaviour depends on. `localId` maps a
/// block's elements to their position within the block.
double intraBlockDistance(const mesh::TetMesh& mesh, const std::vector<int_t>& block,
                          const std::vector<idx_t>& order, idx_t owned,
                          std::vector<idx_t>& localId /* scratch, size n */) {
  for (std::size_t i = 0; i < order.size(); ++i) localId[order[i]] = static_cast<idx_t>(i);
  double sum = 0.0;
  for (idx_t e : order)
    for (int_t f = 0; f < 4; ++f) {
      const idx_t nb = mesh.faces[e][f].neighbor;
      if (nb >= 0 && nb < owned && block[nb] == block[e])
        sum += std::abs(static_cast<double>(localId[e] - localId[nb]));
    }
  return sum;
}

} // namespace

Reordering buildClusterReordering(const mesh::TetMesh& mesh, const std::vector<int_t>& cluster,
                                  bool packNeighbors, idx_t numOwned) {
  const idx_t n = mesh.numElements();
  const idx_t owned = numOwned < 0 ? n : numOwned;
  if (owned > n) throw std::runtime_error("buildClusterReordering: numOwned > numElements");
  int_t nc = 0;
  for (idx_t e = 0; e < n; ++e) nc = std::max(nc, cluster[e] + 1);

  // Sub-block of each owned element: its cluster, split into interior
  // (role 0) then halo boundary (role 1, a face neighbor in the halo suffix)
  // — the interior-then-send order of `buildReordering`. Base ordering is a
  // stable sort by sub-block, preserving the mesh generator's numbering
  // inside each one (already near-banded for graded boxes). Only the owned
  // prefix takes part; halo elements stay behind it.
  std::vector<int_t> blockOf(owned);
  std::vector<std::vector<idx_t>> blocks(2 * static_cast<std::size_t>(nc));
  for (idx_t e = 0; e < owned; ++e) {
    blockOf[e] = 2 * cluster[e] + (hasHaloFace(mesh, e, owned) ? 1 : 0);
    blocks[blockOf[e]].push_back(e);
  }

  Reordering r;
  r.oldId.reserve(n);
  std::vector<idx_t> localId(n, 0);
  std::vector<char> visited;
  std::vector<idx_t> bfs;
  for (int_t k = 0; k < 2 * nc; ++k) {
    auto& block = blocks[k];
    if (packNeighbors && block.size() > 2) {
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
            if (nb >= 0 && nb < owned && !visited[nb] && blockOf[nb] == k) {
              bfs.push_back(nb);
              visited[nb] = 1;
            }
          }
        }
      }
      if (intraBlockDistance(mesh, blockOf, bfs, owned, localId) <
          intraBlockDistance(mesh, blockOf, block, owned, localId))
        block.swap(bfs);
    }
    r.oldId.insert(r.oldId.end(), block.begin(), block.end());
  }
  for (idx_t e = owned; e < n; ++e) r.oldId.push_back(e); // halo suffix, stable

  r.newId.resize(n);
  for (idx_t e = 0; e < n; ++e) r.newId[r.oldId[e]] = e;
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
  const idx_t n = mesh.numElements();
  out.elements.resize(n);
  out.faces.resize(n);
  for (idx_t e = 0; e < n; ++e) {
    const idx_t src = r.oldId[e];
    out.elements[e] = mesh.elements[src];
    out.faces[e] = mesh.faces[src];
    for (int_t f = 0; f < 4; ++f)
      if (out.faces[e][f].neighbor >= 0)
        out.faces[e][f].neighbor = r.newId[out.faces[e][f].neighbor];
  }
  return out;
}

} // namespace nglts::partition
