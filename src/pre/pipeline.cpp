#include "pre/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "mesh/gmsh_io.hpp"
#include "partition/dual_graph.hpp"

namespace nglts::pre {

namespace {

/// Velocity-aware 1D sizing along an axis: the target edge length at a point
/// is the minimum shear wavelength over the orthogonal plane (sampled),
/// divided by the elements-per-wavelength rule.
std::vector<double> axisPlanes(const seismo::VelocityModel& model, const PipelineConfig& cfg,
                               int_t axis) {
  auto spacing = [&](double t) {
    double vsMin = 1e300;
    // Sample a coarse grid of the orthogonal plane.
    for (int_t i = 0; i <= 4; ++i)
      for (int_t j = 0; j <= 4; ++j) {
        std::array<double, 3> x;
        x[axis] = t;
        const int_t a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
        x[a1] = cfg.lo[a1] + (cfg.hi[a1] - cfg.lo[a1]) * i / 4.0;
        x[a2] = cfg.lo[a2] + (cfg.hi[a2] - cfg.lo[a2]) * j / 4.0;
        vsMin = std::min(vsMin, model.at(x).vs);
      }
    const double target = vsMin / cfg.maxFrequency / cfg.elementsPerWavelength;
    return std::clamp(target, cfg.minEdge, cfg.maxEdge);
  };
  return mesh::gradedPlanes(cfg.lo[axis], cfg.hi[axis], spacing);
}

} // namespace

PipelineResult runPipeline(const seismo::VelocityModel& model, const PipelineConfig& cfg) {
  PipelineResult out;

  // 1. Velocity-aware mesh — or an external Gmsh import (`--mesh-file`),
  // which replaces the meshing rule entirely (materials, CFL, clustering
  // and partitioning below apply to either the same way).
  mesh::TetMesh& mesh = out.mesh;
  if (cfg.meshFile.empty()) {
    mesh::BoxSpec spec;
    for (int_t a = 0; a < 3; ++a) spec.planes[a] = axisPlanes(model, cfg, a);
    spec.jitter = cfg.jitter;
    spec.freeSurfaceTop = cfg.freeSurfaceTop;
    mesh = mesh::generateBox(spec);
  } else {
    mesh = mesh::readGmshFile(cfg.meshFile);
  }
  NGLTS_LOG_INFO << "pipeline: mesh with " << mesh.numElements() << " elements"
                 << (cfg.meshFile.empty() ? "" : " (imported from " + cfg.meshFile + ")");

  // 2. Materials and CFL steps.
  out.materials = seismo::materialsForMesh(mesh, model, cfg.mechanisms, cfg.maxFrequency);
  const auto geo = mesh::computeGeometry(mesh);
  out.dtCfl = lts::cflTimeSteps(geo, out.materials, cfg.order, cfg.cfl);

  // 3. Clustering with the lambda sweep.
  double lambda = cfg.lambda;
  if (cfg.autoLambda) {
    out.lambdaSweep = lts::optimizeLambda(mesh, out.dtCfl, cfg.numClusters);
    lambda = out.lambdaSweep.bestLambda;
  }
  out.clustering = lts::buildClustering(mesh, out.dtCfl, cfg.numClusters, lambda);

  // 4. Partitioning over the LTS-weighted dual graph.
  const auto graph =
      partition::buildPartitionGraph(mesh, out.clustering, partition::PartitionWeighting::kWeighted);
  out.parts = partition::partitionGraph(graph, mesh, cfg.numPartitions);

  return out;
}

std::string PipelineResult::summary() const {
  std::ostringstream os;
  os << "elements: " << mesh.numElements() << "\n";
  os << "clusters (lambda " << clustering.lambda << "):";
  for (int_t l = 0; l < clustering.numClusters; ++l)
    os << " C" << (l + 1) << "=" << clustering.clusterSize[l];
  os << "\ntheoretical LTS speedup: " << clustering.theoreticalSpeedup << "\n";
  os << "partitions: " << parts.numParts << ", load imbalance " << parts.imbalance
     << ", element spread " << parts.elementSpread() << "\n";
  return os.str();
}

} // namespace nglts::pre
