#pragma once
// The clustering of the next-generation local time stepping scheme
// (paper Sec. V-A): rate-2 time clusters
//   C_l = [2^{l-1} lambda dt_min, 2^l lambda dt_min),  l = 1..N_c
// (the last cluster is open-ended), neighbor-rate normalization, the
// theoretical-speedup model, and the lambda sweep optimizer.
#include <vector>

#include "common/types.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"

namespace nglts::lts {

/// Per-element CFL time steps: dt_k = cfl * 2 r_in / ((2O - 1) v_p).
std::vector<double> cflTimeSteps(const std::vector<mesh::ElementGeometry>& geo,
                                 const std::vector<physics::Material>& materials, int_t order,
                                 double cfl = 0.5);

struct Clustering {
  int_t numClusters = 1;
  double lambda = 1.0;
  double dtMin = 0.0;                 ///< min of the per-element CFL steps
  std::vector<int_t> cluster;         ///< per element, 0-based cluster id
  std::vector<double> clusterDt;      ///< time step of each cluster
  std::vector<idx_t> clusterSize;     ///< elements per cluster
  idx_t normalizationMoves = 0;       ///< elements lowered by normalization
  double theoreticalSpeedup = 1.0;    ///< vs. GTS at dtMin
  /// Fraction of the total update load carried by each cluster.
  std::vector<double> loadFraction;
};

/// Assign clusters from per-element CFL steps; normalizes so neighbors differ
/// by at most one cluster (paper Sec. V-A). `numClusters` is an upper bound:
/// the empty clusters above the largest populated one are dropped, empty
/// ones below it stay. `normalize = false` is the
/// reference `Clustering.NormalizationLossIsSmall` (tests/test_lts.cpp)
/// measures the paper's sub-1.5% normalization loss against.
Clustering buildClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                           int_t numClusters, double lambda, bool normalize = true);

/// Theoretical speedup of a clustering over GTS: element k advancing with
/// cluster step dt_c costs 1/dt_c updates per second of simulated time.
double theoreticalSpeedup(const std::vector<double>& dtCfl, const Clustering& clustering);

struct LambdaSweep {
  double bestLambda = 1.0;
  double bestSpeedup = 1.0;
  std::vector<double> lambdas;   ///< swept values
  std::vector<double> speedups;  ///< speedup per swept value
};

/// The paper's preprocessing sweep: test lambda = 0.51 .. 1.00 with a 0.01
/// increment over normalized clusterings and keep the best theoretical
/// speedup.
LambdaSweep optimizeLambda(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                           int_t numClusters);

} // namespace nglts::lts
