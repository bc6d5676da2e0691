#include "partition/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace nglts::partition {

double PartitionResult::elementSpread() const {
  idx_t mn = std::numeric_limits<idx_t>::max(), mx = 0;
  for (idx_t n : elements) {
    mn = std::min(mn, n);
    mx = std::max(mx, n);
  }
  return mn > 0 ? static_cast<double>(mx) / mn : std::numeric_limits<double>::infinity();
}

namespace {

/// Morton (Z-order) code of a quantized centroid: cheap spatial ordering for
/// seed spreading and growth tie-breaking.
std::uint64_t mortonCode(const std::array<double, 3>& x, const std::array<double, 3>& lo,
                         const std::array<double, 3>& hi) {
  std::uint64_t code = 0;
  for (int_t bit = 20; bit >= 0; --bit)
    for (int_t d = 0; d < 3; ++d) {
      const double mid = 0.5; // normalized below
      const double t = (x[d] - lo[d]) / (hi[d] - lo[d] + 1e-300);
      const std::uint64_t b = (static_cast<std::uint64_t>(t * (1 << 21)) >> bit) & 1u;
      (void)mid;
      code = (code << 1) | b;
    }
  return code;
}

} // namespace

PartitionResult partitionGraph(const DualGraph& graph, const mesh::TetMesh& mesh,
                               int_t numParts) {
  if (numParts < 1) throw std::runtime_error("partitionGraph: numParts >= 1");
  const idx_t n = graph.numVertices;
  PartitionResult out;
  out.numParts = numParts;
  out.part.assign(n, -1);
  out.load.assign(numParts, 0.0);
  out.elements.assign(numParts, 0);
  if (numParts == 1) {
    std::fill(out.part.begin(), out.part.end(), 0);
    out.load[0] = graph.totalVertexWeight();
    out.elements[0] = n;
    out.imbalance = 1.0;
    return out;
  }

  // Morton ordering of the centroids.
  std::array<double, 3> lo = {1e300, 1e300, 1e300}, hi = {-1e300, -1e300, -1e300};
  std::vector<std::array<double, 3>> cen(n);
  for (idx_t e = 0; e < n; ++e) {
    cen[e] = mesh.centroid(e);
    for (int_t d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], cen[e][d]);
      hi[d] = std::max(hi[d], cen[e][d]);
    }
  }
  std::vector<idx_t> order(n);
  for (idx_t e = 0; e < n; ++e) order[e] = e;
  std::vector<std::uint64_t> code(n);
  for (idx_t e = 0; e < n; ++e) code[e] = mortonCode(cen[e], lo, hi);
  std::sort(order.begin(), order.end(), [&](idx_t a, idx_t b) { return code[a] < code[b]; });

  // Greedy growth from spread seeds; least-loaded part grows next.
  const double targetLoad = graph.totalVertexWeight() / numParts;
  std::vector<std::vector<idx_t>> frontier(numParts);
  idx_t nextUnassigned = 0;
  idx_t assigned = 0;
  for (int_t p = 0; p < numParts; ++p) {
    const idx_t seed = order[(2 * p + 1) * n / (2 * numParts)];
    frontier[p].push_back(seed);
  }
  auto assign = [&](idx_t e, int_t p) {
    out.part[e] = p;
    out.load[p] += graph.vertexWeight[e];
    ++out.elements[p];
    ++assigned;
    for (idx_t i = graph.adjPtr[e]; i < graph.adjPtr[e + 1]; ++i)
      if (out.part[graph.adjList[i]] < 0) frontier[p].push_back(graph.adjList[i]);
  };
  while (assigned < n) {
    // Pick the least-loaded part relative to target.
    int_t p = 0;
    double best = std::numeric_limits<double>::max();
    for (int_t q = 0; q < numParts; ++q) {
      const double rel = out.load[q] / targetLoad;
      if (rel < best) {
        best = rel;
        p = q;
      }
    }
    idx_t e = -1;
    auto& fr = frontier[p];
    while (!fr.empty()) {
      const idx_t cand = fr.back();
      fr.pop_back();
      if (out.part[cand] < 0) {
        e = cand;
        break;
      }
    }
    if (e < 0) {
      while (nextUnassigned < n && out.part[order[nextUnassigned]] >= 0) ++nextUnassigned;
      if (nextUnassigned >= n) break;
      e = order[nextUnassigned];
    }
    assign(e, p);
  }

  // Boundary Kernighan-Lin refinement, at most 8 passes.
  const double maxLoad = 1.03 * targetLoad;
  for (int_t pass = 0; pass < 8; ++pass) {
    idx_t moves = 0;
    for (idx_t e = 0; e < n; ++e) {
      const int_t a = out.part[e];
      // Connection weight to each adjacent part.
      double connA = 0.0;
      int_t bestPart = -1;
      double bestConn = 0.0;
      for (idx_t i = graph.adjPtr[e]; i < graph.adjPtr[e + 1]; ++i) {
        const int_t q = out.part[graph.adjList[i]];
        if (q == a) {
          connA += graph.edgeWeight[i];
          continue;
        }
        double conn = 0.0;
        for (idx_t j = graph.adjPtr[e]; j < graph.adjPtr[e + 1]; ++j)
          if (out.part[graph.adjList[j]] == q) conn += graph.edgeWeight[j];
        if (conn > bestConn) {
          bestConn = conn;
          bestPart = q;
        }
      }
      if (bestPart < 0) continue;
      const double gain = bestConn - connA;
      const double w = graph.vertexWeight[e];
      if (gain > 0 && out.load[bestPart] + w <= maxLoad && out.elements[a] > 1) {
        out.part[e] = bestPart;
        out.load[a] -= w;
        out.load[bestPart] += w;
        --out.elements[a];
        ++out.elements[bestPart];
        ++moves;
      }
    }
    if (moves == 0) break;
  }

  // Balance-restoring pass. The KL loop above trades balance (within its 3%
  // slack) for cut, so walk max load strictly downhill afterwards: move a
  // boundary vertex out of the most-loaded part into an adjacent part
  // whenever the pair's maximum load drops. Among eligible moves the one
  // with the strongest net connection to the destination wins, limiting cut
  // damage. Each move lowers max(load) over the touched pair, so the loop
  // terminates; n moves is a safe hard bound.
  for (idx_t move = 0; move < n; ++move) {
    int_t a = 0;
    for (int_t q = 1; q < numParts; ++q)
      if (out.load[q] > out.load[a]) a = q;
    idx_t bestE = -1;
    int_t bestPart = -1;
    double bestScore = -std::numeric_limits<double>::max();
    for (idx_t e = 0; e < n; ++e) {
      if (out.part[e] != a || out.elements[a] <= 1) continue;
      const double w = graph.vertexWeight[e];
      double connA = 0.0;
      for (idx_t i = graph.adjPtr[e]; i < graph.adjPtr[e + 1]; ++i)
        if (out.part[graph.adjList[i]] == a) connA += graph.edgeWeight[i];
      for (idx_t i = graph.adjPtr[e]; i < graph.adjPtr[e + 1]; ++i) {
        const int_t q = out.part[graph.adjList[i]];
        if (q == a || out.load[q] + w >= out.load[a]) continue;
        double connQ = 0.0;
        for (idx_t j = graph.adjPtr[e]; j < graph.adjPtr[e + 1]; ++j)
          if (out.part[graph.adjList[j]] == q) connQ += graph.edgeWeight[j];
        const double score = connQ - connA;
        if (score > bestScore) {
          bestScore = score;
          bestE = e;
          bestPart = q;
        }
      }
    }
    if (bestE < 0) break;
    const double w = graph.vertexWeight[bestE];
    out.part[bestE] = bestPart;
    out.load[a] -= w;
    out.load[bestPart] += w;
    --out.elements[a];
    ++out.elements[bestPart];
  }

  // Final statistics.
  out.edgeCut = 0.0;
  for (idx_t e = 0; e < n; ++e)
    for (idx_t i = graph.adjPtr[e]; i < graph.adjPtr[e + 1]; ++i)
      if (out.part[graph.adjList[i]] != out.part[e]) out.edgeCut += graph.edgeWeight[i];
  out.edgeCut *= 0.5;
  double maxL = 0.0;
  for (double l : out.load) maxL = std::max(maxL, l);
  out.imbalance = maxL / targetLoad;
  return out;
}

double measureImbalance(const DualGraph& graph, const std::vector<int_t>& part,
                        int_t numParts) {
  if (numParts < 1) throw std::runtime_error("measureImbalance: numParts >= 1");
  std::vector<double> load(numParts, 0.0);
  for (idx_t e = 0; e < graph.numVertices; ++e) load[part[e]] += graph.vertexWeight[e];
  const double total = graph.totalVertexWeight();
  if (total <= 0.0) return 1.0;
  double maxL = 0.0;
  for (double l : load) maxL = std::max(maxL, l);
  return maxL / (total / numParts);
}

std::vector<std::vector<idx_t>> clusterHistogram(const PartitionResult& parts,
                                                 const std::vector<int_t>& cluster,
                                                 int_t numClusters) {
  std::vector<std::vector<idx_t>> hist(parts.numParts, std::vector<idx_t>(numClusters, 0));
  for (std::size_t e = 0; e < cluster.size(); ++e) ++hist[parts.part[e]][cluster[e]];
  return hist;
}

} // namespace nglts::partition
