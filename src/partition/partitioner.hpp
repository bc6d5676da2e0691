#pragma once
// Balanced k-way graph partitioning (METIS stand-in, see docs/ARCHITECTURE.md,
// "Substitutions relative to the paper's production setup"):
// geometric-seeded greedy growth balancing the weighted load, followed by a
// boundary Kernighan-Lin refinement pass reducing the weighted edge cut.
#include <vector>

#include "common/types.hpp"
#include "mesh/tet_mesh.hpp"
#include "partition/dual_graph.hpp"

namespace nglts::partition {

struct PartitionResult {
  int_t numParts = 0;
  std::vector<int_t> part;     ///< per element
  std::vector<double> load;    ///< weighted load per part
  std::vector<idx_t> elements; ///< element count per part
  double edgeCut = 0.0;        ///< weighted cut
  double imbalance = 0.0;      ///< max load / avg load
  /// Element-count spread (the paper's Fig. 7 metric): max/min elements.
  double elementSpread() const;
};

/// Partition the dual graph into `numParts` parts. Seeds are spread along a
/// space-filling-curve-like ordering of element centroids.
PartitionResult partitionGraph(const DualGraph& graph, const mesh::TetMesh& mesh,
                               int_t numParts);

/// Per-part per-cluster element counts (the stacked bars of Fig. 7).
std::vector<std::vector<idx_t>> clusterHistogram(const PartitionResult& parts,
                                                 const std::vector<int_t>& cluster,
                                                 int_t numClusters);

/// Max-over-average load of an existing assignment `part`, re-measured under
/// `graph`'s vertex weights. This is how an *unweighted* partition is scored
/// against the weighted LTS cost model (PaperFig7, weighted-partition
/// tests): partitionGraph's own `imbalance` only reflects the weights it
/// balanced. Returns 1.0 (perfect) when the total weight is zero.
double measureImbalance(const DualGraph& graph, const std::vector<int_t>& part,
                        int_t numParts);

} // namespace nglts::partition
