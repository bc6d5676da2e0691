#pragma once
// Seismic velocity models: horizontally layered, the LOH.3 layer-over-halfspace
// benchmark (paper Sec. VII-B), and a synthetic "La Habra-like" basin model
// standing in for CVM-S4.26 + topography (see docs/ARCHITECTURE.md,
// "Substitutions relative to the paper's production setup"):
// a smooth low-velocity sedimentary basin embedded in stiff rock with a
// vertical gradient and undulating (topography-like) modulation, producing
// the ~decade-wide per-element time-step spread of Fig. 5.
//
// Convention: z is "up"; the free surface sits at the top of the domain and
// depth = zTop - z.
#include <array>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"

namespace nglts::seismo {

struct MaterialSample {
  double rho, vp, vs;
  double qp, qs; ///< quality factors (infinity = elastic)
};

class VelocityModel {
 public:
  virtual ~VelocityModel() = default;
  virtual MaterialSample at(const std::array<double, 3>& x) const = 0;
};

/// Horizontally layered model: layers listed top-down, each extending from
/// the previous layer's bottom to its own `zBottom`; the last layer is the
/// halfspace (its zBottom is ignored). Covers the quickstart-style
/// soft-over-stiff boxes as a `VelocityModel` so they can feed the
/// preprocessing pipeline (pre/pipeline.hpp) and the batch engine.
class LayeredModel final : public VelocityModel {
 public:
  struct Layer {
    double zBottom;        ///< lower z bound of the layer (z up)
    MaterialSample sample;
  };
  /// Throws `std::invalid_argument` when `layers` is empty.
  explicit LayeredModel(std::vector<Layer> layers);
  /// The first layer with `zBottom <= x[2]`: a point on a boundary belongs
  /// to the layer above it.
  MaterialSample at(const std::array<double, 3>& x) const override;
  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::vector<Layer> layers_;
};

/// LOH.3: 1000 m layer (vs 2000, vp 4000, rho 2600, Qs 40, Qp 120) over a
/// halfspace (vs 3464, vp 6000, rho 2700, Qs 69.3, Qp 155.9).
class Loh3Model final : public VelocityModel {
 public:
  /// zTop: elevation of the free surface; layer occupies [zTop-1000, zTop].
  explicit Loh3Model(double zTop) : zTop_(zTop) {}
  MaterialSample at(const std::array<double, 3>& x) const override;

  static constexpr double kLayerThickness = 1000.0;

 private:
  double zTop_;
};

/// Synthetic La Habra-like basin: vs from vsMin at the basin surface to
/// vsMax in the bedrock, with a gaussian basin shape, undulating
/// topography-like modulation and a linear depth gradient.
class LaHabraLikeModel final : public VelocityModel {
 public:
  struct Params {
    double zTop = 0.0;
    double vsMin = 250.0;    ///< the paper's reduced cutoff (High-F used 500)
    double vsMax = 3500.0;
    double basinDepth = 3000.0;
    double basinRadius = 8000.0;
    std::array<double, 2> basinCenter = {0.0, 0.0};
    double topoAmplitude = 400.0;   ///< vertical scale of the modulation
    double topoWavelength = 5000.0;
  };
  explicit LaHabraLikeModel(Params p) : p_(p) {}
  MaterialSample at(const std::array<double, 3>& x) const override;

 private:
  Params p_;
};

/// Sample a model at element centroids and build per-element materials.
/// `mechanisms = 0` ignores Q and builds elastic materials. Runs
/// OpenMP-parallel; if the model or the attenuation fit throws for any
/// element, throws std::runtime_error naming the lowest failing element id
/// and its error, whatever the thread count.
std::vector<physics::Material> materialsForMesh(const mesh::TetMesh& mesh,
                                                const VelocityModel& model, int_t mechanisms,
                                                double centralFrequency, double frequencyRatio = 100.0);

} // namespace nglts::seismo
