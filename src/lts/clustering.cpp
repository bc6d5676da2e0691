#include "lts/clustering.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nglts::lts {

std::vector<double> cflTimeSteps(const std::vector<mesh::ElementGeometry>& geo,
                                 const std::vector<physics::Material>& materials, int_t order,
                                 double cfl) {
  if (geo.size() != materials.size())
    throw std::runtime_error("cflTimeSteps: geometry/material size mismatch");
  std::vector<double> dt(geo.size());
  for (std::size_t k = 0; k < geo.size(); ++k)
    dt[k] = cfl * 2.0 * geo[k].inradius / ((2.0 * order - 1.0) * materials[k].vp());
  return dt;
}

Clustering buildClustering(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                           int_t numClusters, double lambda, bool normalize) {
  if (numClusters < 1) throw std::runtime_error("buildClustering: numClusters >= 1 required");
  if (lambda <= 0.5 || lambda > 1.0)
    throw std::runtime_error("buildClustering: lambda must be in (0.5, 1]");
  Clustering out;
  out.numClusters = numClusters;
  out.lambda = lambda;
  out.dtMin = *std::min_element(dtCfl.begin(), dtCfl.end());

  out.clusterDt.resize(numClusters);
  for (int_t l = 0; l < numClusters; ++l)
    out.clusterDt[l] = std::ldexp(lambda * out.dtMin, l); // 2^l lambda dtMin

  const idx_t k = mesh.numElements();
  out.cluster.resize(k);
  for (idx_t e = 0; e < k; ++e) {
    // Largest cluster whose lower bound does not exceed the element's step.
    int_t c = static_cast<int_t>(std::floor(std::log2(dtCfl[e] / (lambda * out.dtMin))));
    c = std::clamp(c, int_t{0}, numClusters - 1);
    // Guard the floating point edge: the cluster step must satisfy the CFL.
    while (c > 0 && out.clusterDt[c] > dtCfl[e]) --c;
    out.cluster[e] = c;
  }

  if (normalize) {
    // Lower elements until neighbors differ by at most one cluster. The
    // sweep only ever lowers ids, so it terminates.
    bool changed = true;
    while (changed) {
      changed = false;
      for (idx_t e = 0; e < k; ++e)
        for (int_t f = 0; f < 4; ++f) {
          const idx_t nb = mesh.faces[e][f].neighbor;
          if (nb < 0) continue;
          if (out.cluster[e] > out.cluster[nb] + 1) {
            out.cluster[e] = out.cluster[nb] + 1;
            ++out.normalizationMoves;
            changed = true;
          }
        }
    }
  }

  out.clusterSize.assign(numClusters, 0);
  for (idx_t e = 0; e < k; ++e) ++out.clusterSize[out.cluster[e]];
  // Only the populated clusters run: an empty top cluster would still set
  // the cycle length (2^(N_c-1) cluster-0 steps). Empty middle clusters stay,
  // the rate-2 coupling steps through them.
  while (out.numClusters > 1 && out.clusterSize[out.numClusters - 1] == 0) --out.numClusters;
  out.clusterDt.resize(out.numClusters);
  out.clusterSize.resize(out.numClusters);

  out.theoreticalSpeedup = theoreticalSpeedup(dtCfl, out);

  out.loadFraction.assign(out.numClusters, 0.0);
  double total = 0.0;
  for (int_t l = 0; l < out.numClusters; ++l) {
    out.loadFraction[l] = static_cast<double>(out.clusterSize[l]) / out.clusterDt[l];
    total += out.loadFraction[l];
  }
  for (double& f : out.loadFraction) f /= total;
  return out;
}

double theoreticalSpeedup(const std::vector<double>& dtCfl, const Clustering& clustering) {
  // Updates per simulated second: GTS does K / dtMin, LTS sum_k 1/dt_cluster.
  double ltsCost = 0.0;
  for (std::size_t e = 0; e < dtCfl.size(); ++e)
    ltsCost += 1.0 / clustering.clusterDt[clustering.cluster[e]];
  const double gtsCost = static_cast<double>(dtCfl.size()) / clustering.dtMin;
  return gtsCost / ltsCost;
}

LambdaSweep optimizeLambda(const mesh::TetMesh& mesh, const std::vector<double>& dtCfl,
                           int_t numClusters) {
  constexpr double kIncrement = 0.01;
  LambdaSweep sweep;
  sweep.bestSpeedup = 0.0;
  for (double lambda = 0.5 + kIncrement; lambda <= 1.0 + 1e-12; lambda += kIncrement) {
    const double lam = std::min(lambda, 1.0);
    const Clustering c = buildClustering(mesh, dtCfl, numClusters, lam);
    sweep.lambdas.push_back(lam);
    sweep.speedups.push_back(c.theoreticalSpeedup);
    if (c.theoreticalSpeedup > sweep.bestSpeedup) {
      sweep.bestSpeedup = c.theoreticalSpeedup;
      sweep.bestLambda = lam;
    }
  }
  return sweep;
}

} // namespace nglts::lts
