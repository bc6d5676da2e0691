#pragma once
// Weighted dual graph of a tet mesh (paper Sec. V-C): vertices are elements
// with computation weights 2^(Nc - 1 - cluster); edges are interior faces
// with weights proportional to the communication volume and frequency of the
// adjacent elements.
#include <vector>

#include "common/types.hpp"
#include "lts/clustering.hpp"
#include "mesh/tet_mesh.hpp"

namespace nglts::partition {

/// Which weights the k-way partitioner balances. `kWeighted` is the paper's
/// LTS cost model and the one every run partitions with; `kUnweighted`
/// (every vertex and edge weight 1, plain element counts — the GTS
/// assumption) is the reference the weighted partition is scored against
/// (PaperFig7, tests/test_weighted_partition.cpp).
enum class PartitionWeighting : int {
  kUnweighted = 0,
  kWeighted
};

struct DualGraph {
  idx_t numVertices = 0;
  std::vector<idx_t> adjPtr;    ///< CSR offsets (numVertices + 1)
  std::vector<idx_t> adjList;   ///< neighbor element ids
  std::vector<double> edgeWeight; ///< parallel to adjList
  std::vector<double> vertexWeight;

  double totalVertexWeight() const;
};

/// Share of an element update spent in the ADER predictor + volume/local
/// phase vs. the per-face neighbor-flux phase — the cost model behind the
/// face-flux vertex term of `buildPartitionGraph(kWeighted)`. A 4-face
/// interior element splits 60/40; boundary faces contribute nothing, so
/// surface elements weigh less than interior ones of the same cluster.
inline constexpr double kAderCostShare = 0.6;
inline constexpr double kFaceFluxCostShare = 0.4;

/// Build the graph the rank partitioner balances, selected by `weighting`:
///   kUnweighted -> vertex and edge weights 1;
///   kWeighted   -> a face's weight is the number of datasets shipped across
///                  it per cycle (B1 per step for equal clusters, B2 +
///                  (B1-B2) per smaller-side step, B3 once per two steps);
///                  an element's weight is its update frequency
///                  2^(Nc-1-cluster) times the face-flux cost term
///                    w(e) = stepsPerCycle(Nc, cl(e)) *
///                           (kAderCostShare +
///                            kFaceFluxCostShare * interiorFaces(e) / 4).
DualGraph buildPartitionGraph(const mesh::TetMesh& mesh, const lts::Clustering& clustering,
                              PartitionWeighting weighting);

} // namespace nglts::partition
