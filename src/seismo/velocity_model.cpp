#include "seismo/velocity_model.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

#include "physics/attenuation.hpp"

namespace nglts::seismo {

LayeredModel::LayeredModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  if (layers_.empty()) throw std::invalid_argument("LayeredModel: at least one layer required");
}

MaterialSample LayeredModel::at(const std::array<double, 3>& x) const {
  for (const Layer& l : layers_)
    if (x[2] >= l.zBottom) return l.sample;
  return layers_.back().sample; // halfspace below the last listed bottom
}

MaterialSample Loh3Model::at(const std::array<double, 3>& x) const {
  const double depth = zTop_ - x[2];
  if (depth < kLayerThickness) return {2600.0, 4000.0, 2000.0, 120.0, 40.0};
  return {2700.0, 6000.0, 3464.0, 155.9, 69.3};
}

MaterialSample LaHabraLikeModel::at(const std::array<double, 3>& x) const {
  const double dx = x[0] - p_.basinCenter[0];
  const double dy = x[1] - p_.basinCenter[1];
  const double r2 = (dx * dx + dy * dy) / (p_.basinRadius * p_.basinRadius);
  // Topography-like elevation modulation of the effective depth.
  const double topo = p_.topoAmplitude *
                      std::sin(2.0 * std::numbers::pi * x[0] / p_.topoWavelength) *
                      std::cos(2.0 * std::numbers::pi * x[1] / p_.topoWavelength);
  const double depth = std::max(0.0, p_.zTop - x[2] + topo);
  // Basin indicator in [0, 1]: 1 deep inside the basin footprint near the
  // surface, decaying with radius and depth.
  const double basin = std::exp(-r2) * std::exp(-depth / p_.basinDepth);
  // Bedrock velocity grows with depth (saturating); basin pulls it down.
  const double vRock = p_.vsMax * (0.35 + 0.65 * std::min(1.0, depth / (2.0 * p_.basinDepth)));
  double vs = basin * p_.vsMin + (1.0 - basin) * vRock;
  vs = std::max(p_.vsMin, std::min(p_.vsMax, vs));
  const double vp = vs * std::sqrt(3.0); // Poisson solid
  const double rho = 1741.0 * std::pow(vp / 1000.0, 0.25); // Gardner's relation
  const double qs = 0.1 * vs; // common Q ~ 0.1 vs rule for basins
  const double qp = 2.0 * qs;
  return {rho, vp, vs, qp, qs};
}

std::vector<physics::Material> materialsForMesh(const mesh::TetMesh& mesh,
                                                const VelocityModel& model, int_t mechanisms,
                                                double centralFrequency, double frequencyRatio) {
  std::vector<physics::Material> mats(mesh.numElements());
  // An exception leaving the OpenMP region would call std::terminate: keep
  // the lowest failing element (thread-count independent) and throw after.
  idx_t bad = -1;
  std::string what;
#pragma omp parallel for schedule(static)
  for (idx_t el = 0; el < mesh.numElements(); ++el) {
    try {
      const MaterialSample s = model.at(mesh.centroid(el));
      if (mechanisms > 0 && std::isfinite(s.qp) && std::isfinite(s.qs)) {
        mats[el] = physics::viscoElasticMaterial(s.rho, s.vp, s.vs, s.qp, s.qs, mechanisms,
                                                 centralFrequency, frequencyRatio);
      } else {
        mats[el] = physics::elasticMaterial(s.rho, s.vp, s.vs);
      }
    } catch (const std::exception& e) {
#pragma omp critical(nglts_materials_for_mesh)
      if (bad < 0 || el < bad) {
        bad = el;
        what = e.what();
      }
    }
  }
  if (bad >= 0)
    throw std::runtime_error("materialsForMesh: element " + std::to_string(bad) + ": " + what);
  return mats;
}

} // namespace nglts::seismo
