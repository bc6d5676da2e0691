#pragma once
// Shared constructor-time resolution of solver inputs from a `SimConfig`:
// the clustering (GTS collapse to one cluster, optional auto-lambda sweep)
// and the anelastic relaxation-frequency vector. The engine
// (parallel/dist_sim.hpp) and the CLI both resolve through these helpers so
// every path steps the exact same clusters — the invariant behind the
// bitwise equivalence of a run across rank counts.
#include <vector>

#include "lts/clustering.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"
#include "solver/config.hpp"

namespace nglts::solver {

/// The clustering knobs `cfg` asks for: GTS collapses to one cluster at
/// lambda 1 with the sweep off, otherwise `cfg.numClusters` rate-2 clusters
/// with `cfg.lambda` or the Sec. V-A sweep (`cfg.autoLambda`). The
/// preprocessing pipeline's callers copy these, so a pipeline clusters and
/// partitions exactly as the engine steps.
struct ClusterRule {
  int_t numClusters = 1;
  double lambda = 1.0;
  bool autoLambda = false;
};
ClusterRule clusterRule(const SimConfig& cfg);

/// Resolve the clustering `clusterRule(cfg)` asks for from per-element CFL
/// steps (the sweep logged at info level).
lts::Clustering resolveClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                                  const SimConfig& cfg);

/// Mesh-wide relaxation frequencies for `mechanisms` anelastic mechanisms,
/// taken from the first sufficiently viscoelastic material (fitConstantQ
/// places them by (mechanisms, band) only). Empty for elastic runs; throws
/// `std::runtime_error` if no material provides them.
std::vector<double> resolveOmega(const std::vector<physics::Material>& materials,
                                 int_t mechanisms);

} // namespace nglts::solver
