#pragma once
// Shared scenario builders for the reproduction benches. Scales are chosen
// so the full bench suite runs in minutes on a workstation; set
// NGLTS_BENCH_SCALE=2 (or higher) in the environment for larger runs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "linalg/kernel_backend.hpp"
#include "mesh/box_gen.hpp"
#include "solver/config.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"
#include "seismo/velocity_model.hpp"

namespace nglts::bench {

/// Mesh-scale multiplier of the benches: `NGLTS_BENCH_SCALE`, default 1. A
/// value that is not a finite number > 0 exits with a clear message instead
/// of meshing with scale 0 (a division by zero further down).
inline double benchScale() {
  const char* s = std::getenv("NGLTS_BENCH_SCALE");
  if (!s) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    std::fprintf(stderr, "NGLTS_BENCH_SCALE: '%s' is not a finite number > 0\n", s);
    std::exit(2);
  }
  return v;
}

/// Kernel backend the solver benches pin (`SimConfig::kernelBackend`): the
/// `NGLTS_KERNEL` environment variable — auto | scalar | vector, plumbed
/// through `KERNEL=` in bench/run_benches.sh — default auto. Record
/// `benchKernelLabel()` in the JSON artifact so every BENCH row names the
/// backend that produced it. A bad value (or an explicit `vector` this
/// build/host cannot honor) exits with a clear message instead of letting
/// the exception abort the bench mid-run.
inline linalg::KernelBackend benchKernelBackend() {
  const char* s = std::getenv("NGLTS_KERNEL");
  if (!s) return linalg::KernelBackend::kAuto;
  try {
    const linalg::KernelBackend b = linalg::parseKernelBackend(s);
    linalg::resolveKernelBackend(b);  // explicit-vector availability check
    return b;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "NGLTS_KERNEL: %s\n", e.what());
    std::exit(2);
  }
}

/// Resolved human-readable label of `benchKernelBackend()`, e.g.
/// "vector(avx2)".
inline std::string benchKernelLabel() {
  return linalg::resolvedKernelBackendLabel(benchKernelBackend());
}

/// Arithmetic precision the solver benches pin (`SimConfig::precision`):
/// the `NGLTS_PRECISION` environment variable — f64 | f32, plumbed through
/// `PRECISION=` in bench/run_benches.sh — default f64. Record
/// `precisionName(benchPrecision())` in the JSON artifact ("precision"
/// key) so every BENCH row names the precision that produced it. A bad
/// value exits with a clear message instead of aborting mid-run.
inline solver::Precision benchPrecision() {
  const char* s = std::getenv("NGLTS_PRECISION");
  if (!s) return solver::Precision::kF64;
  try {
    return solver::parsePrecision(s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "NGLTS_PRECISION: %s\n", e.what());
    std::exit(2);
  }
}

/// Machine-readable bench artifact (BENCH_*.json): a flat object of run
/// metadata plus a "rows" array of per-configuration measurements. The
/// perf-trajectory tooling (bench/run_benches.sh) diffs these files across
/// commits, so keys should stay stable.
class JsonReport {
 public:
  void set(const std::string& key, double value) { top_.emplace_back(key, number(value)); }
  void set(const std::string& key, const std::string& value) {
    top_.emplace_back(key, quote(value));
  }

  void beginRow() { rows_.emplace_back(); }
  void rowSet(const std::string& key, double value) {
    if (rows_.empty()) beginRow();
    rows_.back().emplace_back(key, number(value));
  }
  void rowSet(const std::string& key, const std::string& value) {
    if (rows_.empty()) beginRow();
    rows_.back().emplace_back(key, quote(value));
  }

  std::string str() const {
    std::string out = "{\n";
    for (const auto& [k, v] : top_) out += "  " + quote(k) + ": " + v + ",\n";
    out += "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "    {";
      for (std::size_t j = 0; j < rows_[i].size(); ++j) {
        if (j) out += ", ";
        out += quote(rows_[i][j].first) + ": " + rows_[i][j].second;
      }
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string s = str();
    const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> top_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// LOH.3 domain of the paper scaled down: a slow layer over a fast halfspace
/// with velocity-aware vertical grading (finer planes in the layer) and
/// jitter — reproduces the bimodal-with-tails dt density of Fig. 4.
struct Loh3Scenario {
  mesh::TetMesh mesh;
  std::vector<physics::Material> materials;
  seismo::Loh3Model model{0.0};

  explicit Loh3Scenario(double scale = 1.0, int_t mechanisms = 3, double fCentral = 1.0) {
    // The paper's LOH.3 meshes are velocity-aware *inside* the region of
    // interest (layer 1.732x finer than the halfspace) and coarsen away from
    // it; together with unstructured element quality this produces the 1..8x
    // dt/dtMin spread of Fig. 4. We reproduce both effects: ROI-focused
    // lateral grading plus vertex jitter.
    const double ext = 8000.0; // m, horizontal extent
    const double depth = 4000.0;
    const double hLayer = 280.0 / scale;  // layer resolution (vs 2000)
    const double hHalf = 485.0 / scale;   // halfspace resolution (vs 3464)
    auto lateral = [&](double x) {
      // Fine in the central ROI, growing ~2.5x toward the absorbing edges.
      const double d = std::fabs(x - 0.5 * ext) / (0.5 * ext); // 0 center, 1 edge
      const double grow = 1.0 + 2.2 * std::max(0.0, d - 0.3) / 0.7;
      return hHalf * grow;
    };
    mesh::BoxSpec spec;
    spec.planes[0] = mesh::gradedPlanes(0.0, ext, lateral);
    spec.planes[1] = mesh::gradedPlanes(0.0, ext, lateral);
    spec.planes[2] = mesh::gradedPlanes(-depth, 0.0, [&](double z) {
      if (z > -seismo::Loh3Model::kLayerThickness) return hLayer;
      const double d = (-z - seismo::Loh3Model::kLayerThickness) / (depth - 1000.0);
      return hHalf * (1.0 + 2.2 * std::max(0.0, d - 0.3) / 0.7);
    });
    spec.jitter = 0.25; // emulates the quality spread of unstructured meshes
    spec.freeSurfaceTop = true;
    mesh = mesh::generateBox(spec);
    // Localized source-region refinement: contract vertices radially toward
    // the source point. A tiny element population (<1%) ends up ~2x finer
    // and sets dt_min — placing the mesh bulk at 2-4x dt_min, the structure
    // behind Fig. 4's clustering (C1 holds only ~2% of the elements).
    const std::array<double, 3> src = {0.5 * ext, 0.5 * ext, -2000.0};
    const double radius = 1500.0, alpha = 0.85;
    for (auto& v : mesh.vertices) {
      double r2 = 0.0;
      for (int_t d = 0; d < 3; ++d) r2 += (v[d] - src[d]) * (v[d] - src[d]);
      const double r = std::sqrt(r2);
      if (r >= radius || r == 0.0) continue;
      const double shrink = 1.0 - alpha * (1.0 - r / radius);
      for (int_t d = 0; d < 3; ++d) v[d] = src[d] + (v[d] - src[d]) * shrink;
    }
    model = seismo::Loh3Model(0.0);
    materials = seismo::materialsForMesh(mesh, model, mechanisms, fCentral);
  }
};

/// La Habra-like scenario: synthetic basin + topography-like modulation with
/// a wide velocity range (vs 250 .. 3500), yielding the ~decade-wide dt
/// spread and the Nc = 5 clustering of Fig. 5.
struct LaHabraScenario {
  mesh::TetMesh mesh;
  std::vector<physics::Material> materials;
  std::unique_ptr<seismo::LaHabraLikeModel> model;

  explicit LaHabraScenario(double scale = 1.0, int_t mechanisms = 0, double fCentral = 1.0) {
    seismo::LaHabraLikeModel::Params p;
    p.zTop = 0.0;
    p.basinCenter = {12000.0, 12000.0};
    model = std::make_unique<seismo::LaHabraLikeModel>(p);
    const double ext = 24000.0, depth = 8000.0;
    // Velocity-aware grading in all three directions (2 elements/wavelength
    // at fCentral against the plane-minimum vs).
    auto planeMinVs = [&](int_t axis, double t) {
      double vsMin = 1e300;
      for (int_t i = 0; i <= 6; ++i)
        for (int_t j = 0; j <= 6; ++j) {
          std::array<double, 3> x;
          x[axis] = t;
          x[(axis + 1) % 3] = (axis + 1) % 3 == 2 ? -depth * i / 6.0 : ext * i / 6.0;
          x[(axis + 2) % 3] = (axis + 2) % 3 == 2 ? -depth * j / 6.0 : ext * j / 6.0;
          vsMin = std::min(vsMin, model->at(x).vs);
        }
      return vsMin;
    };
    mesh::BoxSpec spec;
    for (int_t a = 0; a < 3; ++a) {
      const double lo = a == 2 ? -depth : 0.0;
      const double hi = a == 2 ? 0.0 : ext;
      spec.planes[a] = mesh::gradedPlanes(lo, hi, [&](double t) {
        const double vs = planeMinVs(a, t);
        return std::clamp(vs / fCentral / (2.0 * scale), 120.0 / scale, 2400.0 / scale);
      });
    }
    spec.jitter = 0.22;
    spec.freeSurfaceTop = true;
    mesh = mesh::generateBox(spec);
    materials = seismo::materialsForMesh(mesh, *model, mechanisms, fCentral);
  }
};

} // namespace nglts::bench
