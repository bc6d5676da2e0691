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

/// Resolve the clustering `cfg` asks for from per-element CFL steps:
/// GTS collapses to one cluster at lambda 1, otherwise `cfg.numClusters`
/// rate-2 clusters with a fixed lambda or the Sec. V-A sweep
/// (`cfg.autoLambda`, logged at info level).
lts::Clustering resolveClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                                  const SimConfig& cfg);

/// Mesh-wide relaxation frequencies for `mechanisms` anelastic mechanisms,
/// taken from the first sufficiently viscoelastic material (fitConstantQ
/// places them by (mechanisms, band) only). Empty for elastic runs; throws
/// `std::runtime_error` if no material provides them.
std::vector<double> resolveOmega(const std::vector<physics::Material>& materials,
                                 int_t mechanisms);

} // namespace nglts::solver
