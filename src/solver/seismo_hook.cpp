#include "solver/seismo_hook.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "basis/quadrature.hpp"

namespace nglts::solver {

template <typename Real, int W>
SeismoHook<Real, W>::SeismoHook(const mesh::TetMesh& mesh,
                                const std::vector<mesh::ElementGeometry>& geo,
                                const std::vector<physics::Material>& materials,
                                const kernels::AderKernels<Real, W>& kernels,
                                const SolverState<Real, W>& state, double receiverDt)
    : mesh_(mesh),
      geo_(geo),
      materials_(materials),
      kernels_(kernels),
      state_(state),
      recDt_(receiverDt) {
  elementSources_.assign(state_.numElements(), {});
  elementReceivers_.assign(state_.numElements(), {});
}

template <typename Real, int W>
void SeismoHook<Real, W>::addPointSource(idx_t element, const seismo::PointSource& src,
                                         std::vector<double> laneScale) {
  if (laneScale.empty()) laneScale.assign(W, 1.0);
  if (static_cast<int_t>(laneScale.size()) != W)
    throw std::invalid_argument("addPointSource: laneScale must have W = " + std::to_string(W) +
                                " entries, got " + std::to_string(laneScale.size()));
  const auto xi = mesh::physicalToReference(mesh_, geo_[element], element, src.position);
  const auto phi = kernels_.globalMatrices().tet->evalAll(xi);
  const int_t nb = kernels_.numBasis();

  BoundSource bs;
  bs.element = state_.toInternal(element);
  bs.stf = src.stf;
  bs.coeffs.assign(elSize(), Real(0));
  for (int_t v = 0; v < kElasticVars; ++v) {
    double wv = src.weights[v];
    if (v >= kVelU) wv /= materials_[element].rho; // force -> acceleration
    wv /= geo_[element].detJac;                    // M^{-1} delta projection
    // M_nm = detJac * delta_nm (basis orthonormal on the reference tet), so
    // the delta projection is phi_n(xi_s) / detJac.
    for (int_t b = 0; b < nb; ++b)
      for (int_t lane = 0; lane < W; ++lane)
        bs.coeffs[(static_cast<std::size_t>(v) * nb + b) * W + lane] =
            static_cast<Real>(wv * phi[b] * laneScale[lane]);
  }
  elementSources_[bs.element].push_back(static_cast<idx_t>(sources_.size()));
  sources_.push_back(std::move(bs));
}

template <typename Real, int W>
idx_t SeismoHook<Real, W>::addReceiver(idx_t element, const std::array<double, 3>& position) {
  seismo::Receiver r;
  r.position = position;
  r.element = element;
  r.basisValues = kernels_.globalMatrices().tet->evalAll(
      mesh::physicalToReference(mesh_, geo_[element], element, position));
  r.traces.resize(W);
  elementReceivers_[state_.toInternal(element)].push_back(
      static_cast<idx_t>(receivers_.size()));
  receivers_.push_back(std::move(r));
  return static_cast<idx_t>(receivers_.size()) - 1;
}

template <typename Real, int W>
const seismo::Receiver& SeismoHook<Real, W>::receiver(idx_t i) const {
  if (i < 0 || i >= static_cast<idx_t>(receivers_.size()))
    throw std::out_of_range("receiver: index " + std::to_string(i) + " out of range (have " +
                            std::to_string(receivers_.size()) + ")");
  return receivers_[i];
}

template <typename Real, int W>
seismo::Receiver& SeismoHook<Real, W>::mutableReceiver(idx_t i) {
  return const_cast<seismo::Receiver&>(static_cast<const SeismoHook*>(this)->receiver(i));
}

template <typename Real, int W>
void SeismoHook<Real, W>::afterLocal(idx_t internalEl, Real* q, const Real* stack, double t0,
                                     double dt, std::uint64_t& flops) {
  for (idx_t si : elementSources_[internalEl]) {
    const BoundSource& bs = sources_[si];
    const Real integral = static_cast<Real>(bs.stf->integral(t0, t0 + dt));
    linalg::axpyBlock(integral, bs.coeffs.data(), q, elSize());
    flops += 2ull * elSize();
  }
  if (!elementReceivers_[internalEl].empty()) sampleReceivers(internalEl, stack, t0, dt);
}

template <typename Real, int W>
void SeismoHook<Real, W>::sampleReceivers(idx_t internalEl, const Real* stack, double t0,
                                          double dt) {
  // Evaluate the ADER predictor's Taylor expansion on the uniform receiver
  // time grid inside [t0, t0 + dt] — each LTS element records at full
  // resolution regardless of its cluster's step.
  const int_t nb = kernels_.numBasis();
  const int_t order = kernels_.order();
  const std::size_t vs = static_cast<std::size_t>(nb) * W;
  for (idx_t ri : elementReceivers_[internalEl]) {
    auto& rec = receivers_[ri];
    // Project the derivative stack onto the receiver point:
    // poly[d][v][lane] (time polynomial coefficients).
    std::vector<double> poly(static_cast<std::size_t>(order) * kElasticVars * W, 0.0);
    for (int_t d = 0; d < order; ++d)
      for (int_t v = 0; v < kElasticVars; ++v) {
        const Real* src = stack + static_cast<std::size_t>(d) * bufSize() + v * vs;
        for (int_t b = 0; b < nb; ++b) {
          const double phi = rec.basisValues[b];
          for (int_t lane = 0; lane < W; ++lane)
            poly[(static_cast<std::size_t>(d) * kElasticVars + v) * W + lane] +=
                phi * static_cast<double>(src[static_cast<std::size_t>(b) * W + lane]);
        }
      }
    const idx_t jFirst = static_cast<idx_t>(std::floor(t0 / recDt_ + 1e-9)) + 1;
    for (idx_t j = jFirst; j * recDt_ <= t0 + dt + 1e-12 * dt; ++j) {
      const double tau = j * recDt_ - t0;
      for (int_t lane = 0; lane < W; ++lane) {
        std::array<double, kElasticVars> vals{};
        double coef = 1.0;
        for (int_t d = 0; d < order; ++d) {
          for (int_t v = 0; v < kElasticVars; ++v)
            vals[v] += coef * poly[(static_cast<std::size_t>(d) * kElasticVars + v) * W + lane];
          coef *= tau / (d + 1);
        }
        rec.traces[lane].times.push_back(j * recDt_);
        rec.traces[lane].values.push_back(vals);
      }
    }
  }
}

template <typename Real, int W>
void projectInitialCondition(const kernels::AderKernels<Real, W>& kernels,
                             const mesh::TetMesh& mesh,
                             const std::vector<mesh::ElementGeometry>& geo,
                             const InitialConditionFn& f, SolverState<Real, W>& state,
                             idx_t numElements) {
  if (numElements != mesh.numElements())
    throw std::invalid_argument("projectInitialCondition: numElements " +
                                std::to_string(numElements) + " != mesh element count " +
                                std::to_string(mesh.numElements()));
  const auto quad = basis::tetQuadrature(kernels.order() + 2);
  const auto& tet = *kernels.globalMatrices().tet;
  const std::size_t nq = quad.size();
  const int_t nb = kernels.numBasis();
  const std::size_t elSize = kernels.dofsPerElement();
  const std::size_t elasticSize = static_cast<std::size_t>(kElasticVars) * nb * W;
  // Each DOF row sums over the points in a register block of kB basis
  // functions x W lanes; phi rows are padded with zeros to a multiple of kB.
  constexpr int_t kB = W >= 8 ? 1 : 8 / W;
  const int_t nbPad = (nb + kB - 1) / kB * kB;
  // phi[p * nbPad + b]: the basis at every quadrature point, evaluated once.
  std::vector<double> phi(nq * nbPad, 0.0);
  for (std::size_t p = 0; p < nq; ++p)
    for (int_t b = 0; b < nb; ++b) phi[p * nbPad + b] = tet.eval(b, quad[p].xi);
  // An exception leaving the OpenMP region would call std::terminate: keep
  // the lowest failing global id (thread-count independent) and throw after.
  idx_t bad = -1;
  std::string what;
#pragma omp parallel
  {
    // wq[(v * nq + p) * W + lane] = weight_p * q9[v] at point p; lane innermost.
    std::vector<double> wq(static_cast<std::size_t>(kElasticVars) * nq * W);
#pragma omp for schedule(static)
    for (idx_t in = 0; in < state.numOwned(); ++in) {
      const idx_t el = state.toExternal(in);
      try {
        // All points first, in the callback order (point, lane).
        std::array<bool, kElasticVars> nonzero{};
        const auto& v0 = mesh.vertices[mesh.elements[el][0]];
        for (std::size_t p = 0; p < nq; ++p) {
          std::array<double, 3> x = v0;
          for (int_t r = 0; r < 3; ++r)
            for (int_t c = 0; c < 3; ++c) x[r] += geo[el].jac[r][c] * quad[p].xi[c];
          for (int_t lane = 0; lane < W; ++lane) {
            double q9[kElasticVars];
            f(x, lane, q9);
            for (int_t v = 0; v < kElasticVars; ++v) {
              if (!std::isfinite(q9[v]))
                throw std::runtime_error("non-finite value " + std::to_string(q9[v]) +
                                         " at lane " + std::to_string(lane) +
                                         ", quantity " + std::to_string(v));
              const double w = quad[p].weight * q9[v];
              wq[(v * nq + p) * W + lane] = w;
              nonzero[v] = nonzero[v] || w != 0.0;
            }
          }
        }
        // Each DOF is the sum of Real(wq * phi) over the points, in point
        // order, from +0. A quantity that is +-0 at every point and lane
        // would only add +-0 terms: it stays +0 and is not summed.
        Real* q = state.q(in);
        for (int_t v = 0; v < kElasticVars; ++v) {
          Real* qv = q + static_cast<std::size_t>(v) * nb * W;
          if (!nonzero[v]) {
            linalg::zeroBlock(qv, static_cast<std::size_t>(nb) * W);
            continue;
          }
          const double* wv = wq.data() + v * nq * W;
          for (int_t b0 = 0; b0 < nb; b0 += kB) {
            Real acc[kB * W] = {};
            for (std::size_t p = 0; p < nq; ++p) {
              const double* phiP = phi.data() + p * nbPad + b0;
              const double* wp = wv + p * W;
              for (int_t bb = 0; bb < kB; ++bb)
#pragma omp simd
                for (int_t lane = 0; lane < W; ++lane)
                  acc[bb * W + lane] += static_cast<Real>(wp[lane] * phiP[bb]);
            }
            const int_t n = std::min(kB, nb - b0);
            linalg::copyBlock(qv + static_cast<std::size_t>(b0) * W, acc,
                              static_cast<std::size_t>(n) * W);
          }
        }
        linalg::zeroBlock(q + elasticSize, elSize - elasticSize); // memory variables
      } catch (const std::exception& e) {
#pragma omp critical(nglts_project_initial_condition)
        if (bad < 0 || el < bad) {
          bad = el;
          what = e.what();
        }
      }
    }
  }
  if (bad >= 0)
    throw std::runtime_error("projectInitialCondition: element " + std::to_string(bad) + ": " +
                             what);
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, , SeismoHook)
NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_PROJECT_INITIAL_CONDITION, )

} // namespace nglts::solver
