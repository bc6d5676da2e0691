#include "partition/dual_graph.hpp"

#include "lts/schedule.hpp"

namespace nglts::partition {

double DualGraph::totalVertexWeight() const {
  double s = 0.0;
  for (double w : vertexWeight) s += w;
  return s;
}

DualGraph buildPartitionGraph(const mesh::TetMesh& mesh, const lts::Clustering& clustering,
                              PartitionWeighting weighting) {
  const bool weighted = weighting == PartitionWeighting::kWeighted;
  DualGraph g;
  g.numVertices = mesh.numElements();
  g.adjPtr.assign(g.numVertices + 1, 0);
  g.vertexWeight.resize(g.numVertices);
  g.adjList.reserve(4 * static_cast<std::size_t>(g.numVertices));
  g.edgeWeight.reserve(4 * static_cast<std::size_t>(g.numVertices));
  for (idx_t e = 0; e < g.numVertices; ++e) {
    const int_t cMe = weighted ? clustering.cluster[e] : 0;
    const idx_t steps = weighted ? lts::stepsPerCycle(clustering.numClusters, cMe) : 1;
    int_t interiorFaces = 0;
    for (int_t f = 0; f < 4; ++f) {
      const idx_t nb = mesh.faces[e][f].neighbor;
      if (nb < 0) continue;
      ++interiorFaces;
      // Datasets per cycle this side would send if the edge were cut.
      double w = 1.0;
      if (weighted) {
        const int_t cNb = clustering.cluster[nb];
        if (cNb == cMe)
          w = static_cast<double>(steps);
        else if (cNb > cMe)
          w = 2.0 * steps; // B2 and B1-B2 per own step
        else
          w = steps / 2.0; // B3 once per two steps
      }
      g.adjList.push_back(nb);
      g.edgeWeight.push_back(w);
    }
    g.adjPtr[e + 1] = g.adjPtr[e] + interiorFaces;
    g.vertexWeight[e] = weighted ? static_cast<double>(steps) *
                                       (kAderCostShare + kFaceFluxCostShare * interiorFaces / 4.0)
                                 : 1.0;
  }
  return g;
}

} // namespace nglts::partition
