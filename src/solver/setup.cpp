#include "solver/setup.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace nglts::solver {

namespace {

/// The clustering knobs `cfg` asks for (see `pipelineConfigFor`).
struct ClusterRule {
  int_t numClusters = 1;
  double lambda = 1.0;
  bool autoLambda = false;
};

ClusterRule clusterRule(const SimConfig& cfg) {
  if (cfg.scheme == TimeScheme::kGts) return {};
  return {cfg.numClusters, cfg.lambda, cfg.autoLambda};
}

} // namespace

pre::PipelineConfig pipelineConfigFor(pre::PipelineConfig domain, const SimConfig& cfg,
                                      int_t numPartitions) {
  domain.order = cfg.order;
  domain.mechanisms = cfg.mechanisms;
  domain.cfl = cfg.cfl;
  const ClusterRule rule = clusterRule(cfg);
  domain.numClusters = rule.numClusters;
  domain.autoLambda = rule.autoLambda;
  domain.lambda = rule.lambda;
  domain.numPartitions = numPartitions;
  return domain;
}

lts::Clustering resolveClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                                  const SimConfig& cfg) {
  const ClusterRule rule = clusterRule(cfg);
  double lambda = rule.lambda;
  if (rule.autoLambda) {
    const lts::LambdaSweep sweep = lts::optimizeLambda(mesh, dtCfl, rule.numClusters);
    lambda = sweep.bestLambda;
    NGLTS_LOG_INFO << "lambda sweep: best lambda " << lambda << " speedup " << sweep.bestSpeedup;
  }
  return lts::buildClustering(mesh, dtCfl, rule.numClusters, lambda);
}

std::vector<double> resolveOmega(const std::vector<physics::Material>& materials,
                                 int_t mechanisms) {
  std::vector<double> omega;
  if (mechanisms <= 0) return omega;
  for (const auto& m : materials)
    if (m.mechanisms() >= mechanisms) {
      omega.assign(m.omega.begin(), m.omega.begin() + mechanisms);
      return omega;
    }
  throw std::runtime_error("anelastic run without viscoelastic materials");
}

} // namespace nglts::solver
