#pragma once
// Shared constructor-time resolution of solver inputs from a `SimConfig`:
// the clustering (GTS collapse to one cluster, optional auto-lambda sweep),
// the preprocessing config it implies and the anelastic
// relaxation-frequency vector. The engine
// (parallel/dist_sim.hpp) and the CLI both resolve through these helpers so
// every path steps the exact same clusters — the invariant behind the
// bitwise equivalence of a run across rank counts.
#include <vector>

#include "lts/clustering.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"
#include "pre/pipeline.hpp"
#include "solver/config.hpp"

namespace nglts::solver {

/// `domain` (the extents, meshing rule and `meshFile` of a preprocessing
/// run) with the solver knobs of `cfg` mirrored in — order, mechanisms,
/// cfl and the clustering — and `numPartitions` parts. The clustering is
/// the one the engine steps: GTS collapses to one cluster at lambda 1 with
/// the sweep off, otherwise at most `cfg.numClusters` rate-2 clusters with
/// `cfg.lambda` or the Sec. V-A sweep (`cfg.autoLambda`). So a pipeline
/// clusters and partitions exactly as the engine steps.
pre::PipelineConfig pipelineConfigFor(pre::PipelineConfig domain, const SimConfig& cfg,
                                      int_t numPartitions);

/// Resolve the clustering `cfg` asks for (the rule of `pipelineConfigFor`)
/// from per-element CFL steps (the sweep logged at info level).
lts::Clustering resolveClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                                  const SimConfig& cfg);

/// Mesh-wide relaxation frequencies for `mechanisms` anelastic mechanisms,
/// taken from the first sufficiently viscoelastic material (fitConstantQ
/// places them by (mechanisms, band) only). Empty for elastic runs; throws
/// `std::runtime_error` if no material provides them.
std::vector<double> resolveOmega(const std::vector<physics::Material>& materials,
                                 int_t mechanisms);

} // namespace nglts::solver
