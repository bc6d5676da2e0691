#pragma once
// The production preprocessing pipeline of paper Sec. VI / Fig. 8:
//   velocity model -> velocity-aware target edge lengths -> graded+jittered
//   mesh -> per-element materials -> CFL steps -> clustering + lambda sweep
//   -> dual-graph weights -> partitioning. The result stays in mesh
//   generator order: each rank's solver arena sorts its own elements by
//   (cluster, communication role) (partition::buildClusterReordering).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lts/clustering.hpp"
#include "mesh/tet_mesh.hpp"
#include "partition/partitioner.hpp"
#include "physics/material.hpp"
#include "seismo/velocity_model.hpp"

namespace nglts::pre {

struct PipelineConfig {
  /// Domain extents (z up; the free surface is the top boundary).
  std::array<double, 3> lo = {0.0, 0.0, 0.0};
  std::array<double, 3> hi = {1000.0, 1000.0, 1000.0};
  /// Target elements per shortest wavelength and max resolved frequency.
  double elementsPerWavelength = 2.0;
  double maxFrequency = 1.0;
  /// Hard bounds on the edge length [m].
  double minEdge = 10.0;
  double maxEdge = 1e9;
  double jitter = 0.15;
  int_t order = 4;
  int_t mechanisms = 3;
  double cfl = 0.5;
  int_t numClusters = 3;
  bool autoLambda = true;
  double lambda = 1.0;
  int_t numPartitions = 1;
  bool freeSurfaceTop = true;
  /// External mesh ingestion (`--mesh-file`): when non-empty, step 1 of the
  /// pipeline loads this Gmsh `.msh` 4.1 file (mesh/gmsh_io.hpp) instead of
  /// generating the velocity-aware box; the meshing-rule fields above then
  /// no longer shape the mesh.
  std::string meshFile;
};

struct PipelineResult {
  mesh::TetMesh mesh;                      ///< generator (or file) order
  std::vector<physics::Material> materials;
  std::vector<double> dtCfl;
  lts::Clustering clustering;
  lts::LambdaSweep lambdaSweep;            ///< empty if autoLambda = false
  partition::PartitionResult parts;

  std::string summary() const;
};

/// Run the full pipeline against a velocity model.
PipelineResult runPipeline(const seismo::VelocityModel& model, const PipelineConfig& config);

} // namespace nglts::pre
