#pragma once
// The ADER-DG compute kernels of Sec. III/IV, templated on the scalar type
// and the fused-simulation width W:
//   * time kernel      — Cauchy-Kowalevski predictor (Eq. 4-7) including the
//                        B1/B2/B3 buffer writes of the next-generation LTS
//                        scheme (Eq. 17),
//   * volume kernel    — Eq. 8-9 (the reactive source E q folded in),
//   * surface kernels  — local (Eq. 10/12) and neighboring (Eq. 11/13)
//                        contributions via the face-basis factorization,
//   * compression      — sender-side flux-matrix products producing the
//                        9 x F face-local representation shipped over the
//                        "network" (Sec. V-C).
// DOF layout: q[var][basisFn][W], W innermost.
//
// Every small-GEMM these kernels issue goes through a per-instance
// `linalg::SmallGemmOps` dispatch table resolved once at construction from
// the requested `linalg::KernelBackend` (scalar reference vs explicit-SIMD
// vector kernels; docs/KERNELS.md). The layers above — StepExecutor,
// Simulation, DistributedSimulation — pick the backend up through this
// class without any changes of their own; results are bitwise-identical
// across backends, and the returned flop counts are backend-invariant.
#include <cmath>
#include <cstdint>
#include <memory>

#include "basis/global_matrices.hpp"
#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/element_data.hpp"
#include "linalg/small_gemm_dispatch.hpp"

namespace nglts::kernels {

template <typename Real, int W>
class AderKernels {
 public:
  struct Scratch {
    aligned_vector<Real> derA, derB;   // nq x nb x W ping-pong derivatives
    aligned_vector<Real> sc;           // 9 x nb x W spatial-derivative product
    aligned_vector<Real> anAcc;        // 6 x nb x W anelastic accumulator
    aligned_vector<Real> faceProj;     // 9 x nf x W
    aligned_vector<Real> faceSolved;   // 9 x nf x W
    aligned_vector<Real> faceAn;       // 6 x nf x W
    aligned_vector<Real> anLift;       // 6 x nb x W
    aligned_vector<Real> timeInt;      // nq x nb x W
    aligned_vector<Real> bufCombo;     // 9 x nb x W (B1 - B2 staging etc.)
  };

  /// `sparse` selects the CSR kernels for the global matrices (the paper's
  /// fused-mode "all sparsity" path); dense mode still trims the derivative
  /// degrees. Both apply the star blocks over their fixed patterns. `backend`
  /// requests the small-GEMM implementation (`SimConfig::kernelBackend`:
  /// CPU detection unless a test asks for one); it is resolved here via
  /// `linalg::resolveKernelBackend`, which hard-errors on an explicit
  /// `kVector` request the build or host cannot honor (never a silent
  /// fallback).
  AderKernels(int_t order, int_t mechanisms, bool sparse,
              std::vector<double> relaxationFrequencies = {},
              linalg::KernelBackend backend = linalg::KernelBackend::kAuto);

  /// The *resolved* backend every small-GEMM of this instance dispatches to
  /// (kScalar or kVector, never kAuto).
  linalg::KernelBackend backend() const { return backend_; }

  int_t order() const { return order_; }
  int_t numBasis() const { return nb_; }
  int_t numFaceBasis() const { return nf_; }
  int_t numQuantities() const { return nq_; }
  int_t mechanisms() const { return mechs_; }
  const std::vector<Real>& omega() const { return omega_; }
  const basis::GlobalMatrices& globalMatrices() const { return *gm_; }

  std::size_t dofsPerElement() const { return static_cast<std::size_t>(nq_) * nb_ * W; }
  std::size_t elasticDofsPerElement() const {
    return static_cast<std::size_t>(kElasticVars) * nb_ * W;
  }
  std::size_t faceDataSize() const { return static_cast<std::size_t>(kElasticVars) * nf_ * W; }

  /// One thread's scratch. The executor owns one per thread through its
  /// `solver::WorkspacePool` (solver/threading.hpp); tests and
  /// microbenchmarks call this directly.
  Scratch makeScratch() const;

  // -- time kernel ----------------------------------------------------------

  /// Cauchy-Kowalevski predictor about the current DOFs `q` over [t, t+dt].
  /// Writes the full time-integrated DOFs to `timeInt` (nq x nb x W) and the
  /// elastic buffers (any of b1/b2/b3 may be null):
  ///   b1 = T_e(t, dt), b2 = T_e(t, dt/2),
  ///   b3 = b1 (even step) or b3 += b1 (odd step)  [Eq. 17].
  /// `derivStack`, if non-null, receives the elastic derivative blocks
  /// D^0..D^{O-1} (order x 9 x nb x W) — used by the baseline scheme of [15].
  std::uint64_t timePredict(const ElementData<Real>& ed, const Real* q, Real dt, Real* timeInt,
                            Real* b1, Real* b2, Real* b3, bool b3Accumulate, Scratch& s,
                            Real* derivStack = nullptr) const;

  /// The flops `timePredict` spends on the B2 writes (`b2`) and on the B3
  /// accumulation of an odd step (`b3Accumulate`). The executor counts them
  /// for an element whose B2/B3 no neighbor reads (solver/state.hpp), so
  /// the flop counter keeps the scheme's analytic count whichever buffers
  /// the storage keeps.
  std::uint64_t bufferFlops(bool b2, bool b3Accumulate) const {
    std::uint64_t flops = b3Accumulate ? elasticDofsPerElement() : 0;
    if (b2)
      for (int_t d = 0; d < order_; ++d)
        flops += 2ull * kElasticVars * (mechs_ > 0 ? nb_ : degWidth_[d]) * W;
    return flops;
  }

  /// Time-integrate a derivative stack over [t0 + a, t0 + a + delta] (the
  /// receiver-side evaluation of the buffer-derivative baseline scheme).
  std::uint64_t integrateDerivStack(const Real* derivStack, Real a, Real delta,
                                    Real* out /* 9 x nb x W, overwritten */) const;

  // -- local update ---------------------------------------------------------

  /// Volume kernel + local surface kernel + reactive source applied to the
  /// time-integrated DOFs; accumulates into the element DOFs `q`.
  std::uint64_t volumeAndLocalSurface(const ElementData<Real>& ed, const Real* timeInt, Real* q,
                                      Scratch& s) const;

  // -- neighboring update ---------------------------------------------------

  /// Neighbor contribution of one face from the neighbor's elastic
  /// time-integrated data (9 x nb x W), using the neighbor's local face id
  /// and the orientation permutation. Accumulates into `q`.
  std::uint64_t neighborContribution(const ElementData<Real>& ed, int_t face, int_t neighFace,
                                     int_t perm, const Real* neighData, Real* q,
                                     Scratch& s) const;

  /// Same, but from an already face-local 9 x nf x W representation (the
  /// compressed message payload of Sec. V-C).
  std::uint64_t neighborContributionFaceLocal(const ElementData<Real>& ed, int_t face,
                                              const Real* faceData, Real* q, Scratch& s) const;

  /// Sender-side compression: faceOut = data * Fbar_{ownFace, recvPerm}.
  std::uint64_t compressBuffer(int_t ownFace, int_t recvPerm, const Real* data,
                               Real* faceOut) const;

 private:
  int_t order_, mechs_, nq_, nb_, nf_;
  bool sparse_;
  linalg::KernelBackend backend_;  ///< resolved (kScalar | kVector)
  const linalg::SmallGemmOps<Real, W>* ops_;    ///< dispatch table for backend_
  std::shared_ptr<const basis::GlobalMatrices> gm_;
  std::vector<Real> omega_;

  // Global operators in kernel precision. gXiNeg stores -G_c so the CK
  // recursion and the volume kernel share the star matrices' signs.
  std::array<linalg::SmallOp<Real>, 3> gXiNeg_;
  std::array<linalg::SmallOp<Real>, 3> kXi_;
  std::array<linalg::SmallOp<Real>, 4> fluxLocal_; // B x F
  std::array<linalg::SmallOp<Real>, 4> fluxLift_;  // F x B
  std::array<std::array<linalg::SmallOp<Real>, 6>, 4> fluxNeigh_; // B x F

  std::array<int_t, 16> degWidth_{}; // B(order - d) widths for elastic CK

  // Patterns of the per-element operator blocks (element_data.hpp). The
  // flux solvers are dense: their star products walk full patterns.
  linalg::StarPattern starE_ = starEPattern();
  linalg::StarPattern starA_ = starAPattern();
  linalg::StarPattern couple_ = couplePattern();
  linalg::StarPattern fluxE_ = linalg::densePattern(kElasticVars, kElasticVars);
  linalg::StarPattern fluxA_ = linalg::densePattern(6, kElasticVars);

  std::size_t varStride() const { return static_cast<std::size_t>(nb_) * W; }

  /// Apply a global operator from the right, choosing the *image* (dense
  /// block-trimmed vs fully sparse CSR, Sec. IV-A) per `sparse_` and the
  /// *implementation* per the dispatched backend table.
  std::uint64_t applyRight(const linalg::SmallOp<Real>& op, int_t nVars, int_t kEff, int_t nEff,
                           const Real* d, Real* o, int_t ldd, int_t ldo) const {
    if (sparse_) return ops_->rightCsr(nVars, kEff, op.csr, d, o, ldd, ldo);
    return ops_->rightDense(nVars, kEff, nEff, op.cols, d, op.dense.data(), o, ldd, ldo);
  }

  std::uint64_t surfaceFromFaceLocal(const ElementData<Real>& ed, int_t face, const Real* proj,
                                     bool neighborSide, Real* q, Scratch& s) const;
};

// Implementation --------------------------------------------------------

template <typename Real, int W>
AderKernels<Real, W>::AderKernels(int_t order, int_t mechanisms, bool sparse,
                                  std::vector<double> relaxationFrequencies,
                                  linalg::KernelBackend backend)
    : order_(order),
      mechs_(mechanisms),
      nq_(numVars(mechanisms)),
      nb_(numBasis3d(order)),
      nf_(numBasis2d(order)),
      sparse_(sparse),
      backend_(linalg::resolveKernelBackend(backend)),
      ops_(&linalg::smallGemmOps<Real, W>(backend_)),
      gm_(basis::buildGlobalMatrices(order)) {
  omega_.reserve(relaxationFrequencies.size());
  for (double w : relaxationFrequencies) omega_.push_back(static_cast<Real>(w));
  for (int_t c = 0; c < 3; ++c) {
    gXiNeg_[c].assign(gm_->gXi[c].scaled(-1.0));
    kXi_[c].assign(gm_->kXi[c]);
  }
  for (int_t i = 0; i < 4; ++i) {
    fluxLocal_[i].assign(gm_->fluxLocal[i]);
    fluxLift_[i].assign(gm_->fluxLift[i]);
    for (int_t s = 0; s < 6; ++s) fluxNeigh_[i][s].assign(gm_->fluxNeigh[i][s]);
  }
  for (int_t d = 0; d <= order_; ++d)
    degWidth_[d] = numBasis3d(order_ - d > 0 ? order_ - d : 0);
}

template <typename Real, int W>
typename AderKernels<Real, W>::Scratch AderKernels<Real, W>::makeScratch() const {
  Scratch s;
  const std::size_t full = dofsPerElement();
  const std::size_t el9 = elasticDofsPerElement();
  const std::size_t an6 = static_cast<std::size_t>(6) * nb_ * W;
  s.derA.assign(full, Real(0));
  s.derB.assign(full, Real(0));
  s.sc.assign(el9, Real(0));
  s.anAcc.assign(an6, Real(0));
  s.faceProj.assign(faceDataSize(), Real(0));
  s.faceSolved.assign(faceDataSize(), Real(0));
  s.faceAn.assign(static_cast<std::size_t>(6) * nf_ * W, Real(0));
  s.anLift.assign(an6, Real(0));
  s.timeInt.assign(full, Real(0));
  s.bufCombo.assign(el9, Real(0));
  return s;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::timePredict(const ElementData<Real>& ed, const Real* q,
                                                Real dt, Real* timeInt, Real* b1, Real* b2,
                                                Real* b3, bool b3Accumulate, Scratch& s,
                                                Real* derivStack) const {
  std::uint64_t flops = 0;
  const std::size_t vs = varStride();
  const std::size_t full = dofsPerElement();
  const std::size_t el9 = elasticDofsPerElement();
  const bool anel = mechs_ > 0;

  linalg::zeroBlock(timeInt, full);
  if (b1) linalg::zeroBlock(b1, el9);
  if (b2) linalg::zeroBlock(b2, el9);

  Real coefT = dt;            // dt^{d+1} / (d+1)!
  Real coefH = dt * Real(0.5);

  const Real* cur = q;
  Real* next = s.derA.data();
  Real* other = s.derB.data();

  for (int_t d = 0; d < order_; ++d) {
    // Elastic-only runs exploit the vanishing high-degree blocks of the
    // d-th derivative; with anelasticity the reactive source keeps the
    // derivatives full (Sec. V, motivation of the new scheme).
    const int_t widIn = anel ? nb_ : degWidth_[d];
    // Accumulate this derivative into the time integral and the buffers.
    for (int_t v = 0; v < nq_; ++v) {
      ops_->axpy(coefT, cur + v * vs, timeInt + v * vs, static_cast<std::size_t>(widIn) * W);
      flops += 2ull * widIn * W;
    }
    if (b1)
      for (int_t v = 0; v < kElasticVars; ++v) {
        ops_->axpy(coefT, cur + v * vs, b1 + v * vs, static_cast<std::size_t>(widIn) * W);
        flops += 2ull * widIn * W;
      }
    if (b2)
      for (int_t v = 0; v < kElasticVars; ++v) {
        ops_->axpy(coefH, cur + v * vs, b2 + v * vs, static_cast<std::size_t>(widIn) * W);
        flops += 2ull * widIn * W;
      }
    if (derivStack) {
      Real* dst = derivStack + static_cast<std::size_t>(d) * el9;
      linalg::zeroBlock(dst, el9);
      for (int_t v = 0; v < kElasticVars; ++v)
        linalg::copyBlock(dst + v * vs, cur + v * vs, static_cast<std::size_t>(widIn) * W);
    }
    if (d + 1 == order_) break;

    // Next derivative. widOut bounds the polynomial degree of the spatial
    // part; the reactive part keeps full width in the anelastic case.
    const int_t widOut = anel ? degWidth_[1] : degWidth_[d + 1];
    linalg::zeroBlock(next, full);
    linalg::zeroBlock(s.anAcc.data(), anel ? static_cast<std::size_t>(6) * nb_ * W : 0);
    for (int_t c = 0; c < 3; ++c) {
      linalg::zeroBlock(s.sc.data(), el9);
      flops += applyRight(gXiNeg_[c], kElasticVars, widIn, widOut, cur, s.sc.data(), nb_, nb_);
      flops += ops_->star(starE_, ed.elastic->starE[c].data(), widOut, nb_, s.sc.data(), next);
      if (anel)
        flops += ops_->star(starA_, ed.anelastic->starA[c].data(), widOut, nb_, s.sc.data(),
                            s.anAcc.data());
    }
    if (anel) {
      // Elastic rows: reactive source sum_l E_l theta^l.
      for (int_t l = 0; l < mechs_; ++l) {
        const Real* thetaCur = cur + (kElasticVars + 6 * l) * vs;
        const Real* eBlock = ed.couple + static_cast<std::size_t>(l) * kCoupleNnz;
        flops += ops_->star(couple_, eBlock, nb_, nb_, thetaCur, next);
      }
      // Memory-variable rows: omega_l * (anAcc - theta^l).
      for (int_t l = 0; l < mechs_; ++l) {
        const Real wl = omega_[l];
        Real* dst = next + (kElasticVars + 6 * l) * vs;
        const Real* acc = s.anAcc.data();
        const Real* thetaCur = cur + (kElasticVars + 6 * l) * vs;
        const std::size_t n = static_cast<std::size_t>(6) * nb_ * W;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) dst[i] = wl * (acc[i] - thetaCur[i]);
        flops += 2ull * n;
      }
    }
    coefT *= dt / Real(d + 2);
    coefH *= dt * Real(0.5) / Real(d + 2);
    cur = next;
    std::swap(next, other);
  }

  if (b3) {
    if (b3Accumulate) {
      for (std::size_t i = 0; i < el9; ++i) b3[i] += b1[i];
      flops += el9;
    } else {
      linalg::copyBlock(b3, b1, el9);
    }
  }
  return flops;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::integrateDerivStack(const Real* derivStack, Real a,
                                                        Real delta, Real* out) const {
  const std::size_t el9 = elasticDofsPerElement();
  linalg::zeroBlock(out, el9);
  std::uint64_t flops = 0;
  Real factorial = 1.0;
  Real hiPow = a + delta, loPow = a;
  for (int_t d = 0; d < order_; ++d) {
    factorial *= Real(d + 1);
    const Real coef = (hiPow - loPow) / factorial;
    ops_->axpy(coef, derivStack + static_cast<std::size_t>(d) * el9, out, el9);
    flops += 2ull * el9;
    hiPow *= (a + delta);
    loPow *= a;
  }
  return flops;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::volumeAndLocalSurface(const ElementData<Real>& ed,
                                                          const Real* timeInt, Real* q,
                                                          Scratch& s) const {
  std::uint64_t flops = 0;
  const std::size_t vs = varStride();
  const bool anel = mechs_ > 0;
  const std::size_t an6 = static_cast<std::size_t>(6) * nb_ * W;
  if (anel) linalg::zeroBlock(s.anAcc.data(), an6);

  // Volume kernel: contributions of T_e * K_c through the star matrices.
  for (int_t c = 0; c < 3; ++c) {
    linalg::zeroBlock(s.sc.data(), elasticDofsPerElement());
    flops += applyRight(kXi_[c], kElasticVars, nb_, nb_, timeInt, s.sc.data(), nb_, nb_);
    flops += ops_->star(starE_, ed.elastic->starE[c].data(), nb_, nb_, s.sc.data(), q);
    if (anel)
      flops += ops_->star(starA_, ed.anelastic->starA[c].data(), nb_, nb_, s.sc.data(),
                          s.anAcc.data());
  }

  // Local surface kernel.
  for (int_t f = 0; f < 4; ++f) {
    linalg::zeroBlock(s.faceProj.data(), faceDataSize());
    flops += applyRight(fluxLocal_[f], kElasticVars, nb_, nf_, timeInt, s.faceProj.data(), nb_,
                        nf_);
    flops += surfaceFromFaceLocal(ed, f, s.faceProj.data(), /*neighborSide=*/false, q, s);
  }

  if (anel) {
    // Reactive source on the elastic rows: sum_l E_l T_a,l.
    for (int_t l = 0; l < mechs_; ++l) {
      const Real* thetaT = timeInt + (kElasticVars + 6 * l) * vs;
      const Real* eBlock = ed.couple + static_cast<std::size_t>(l) * kCoupleNnz;
      flops += ops_->star(couple_, eBlock, nb_, nb_, thetaT, q);
    }
    // Memory-variable rows: q_a,l += omega_l * (anAcc - T_a,l).
    for (int_t l = 0; l < mechs_; ++l) {
      const Real wl = omega_[l];
      Real* dst = q + (kElasticVars + 6 * l) * vs;
      const Real* acc = s.anAcc.data();
      const Real* thetaT = timeInt + (kElasticVars + 6 * l) * vs;
#pragma omp simd
      for (std::size_t i = 0; i < an6; ++i) dst[i] += wl * (acc[i] - thetaT[i]);
      flops += 3ull * an6;
    }
  }
  return flops;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::surfaceFromFaceLocal(const ElementData<Real>& ed, int_t face,
                                                         const Real* proj, bool neighborSide,
                                                         Real* q, Scratch& s) const {
  std::uint64_t flops = 0;
  const std::size_t vs = varStride();
  const bool anel = mechs_ > 0;
  const auto& fse =
      neighborSide ? ed.elastic->fluxSolveENeigh[face] : ed.elastic->fluxSolveE[face];

  linalg::zeroBlock(s.faceSolved.data(), faceDataSize());
  flops += ops_->star(fluxE_, fse.data(), nf_, nf_, proj, s.faceSolved.data());
  flops += applyRight(fluxLift_[face], kElasticVars, nf_, nb_, s.faceSolved.data(), q, nf_, nb_);

  if (anel) {
    const auto& fsa =
        neighborSide ? ed.anelastic->fluxSolveANeigh[face] : ed.anelastic->fluxSolveA[face];
    linalg::zeroBlock(s.faceAn.data(), static_cast<std::size_t>(6) * nf_ * W);
    flops += ops_->star(fluxA_, fsa.data(), nf_, nf_, proj, s.faceAn.data());
    linalg::zeroBlock(s.anLift.data(), static_cast<std::size_t>(6) * nb_ * W);
    flops += applyRight(fluxLift_[face], 6, nf_, nb_, s.faceAn.data(), s.anLift.data(), nf_, nb_);
    for (int_t l = 0; l < mechs_; ++l) {
      const Real wl = omega_[l];
      Real* dst = q + (kElasticVars + 6 * l) * vs;
      const std::size_t n = static_cast<std::size_t>(6) * nb_ * W;
      ops_->axpy(wl, s.anLift.data(), dst, n);
      flops += 2ull * n;
    }
  }
  return flops;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::neighborContribution(const ElementData<Real>& ed, int_t face,
                                                         int_t neighFace, int_t perm,
                                                         const Real* neighData, Real* q,
                                                         Scratch& s) const {
  std::uint64_t flops = 0;
  linalg::zeroBlock(s.faceProj.data(), faceDataSize());
  flops += applyRight(fluxNeigh_[neighFace][perm], kElasticVars, nb_, nf_, neighData,
                      s.faceProj.data(), nb_, nf_);
  flops += surfaceFromFaceLocal(ed, face, s.faceProj.data(), /*neighborSide=*/true, q, s);
  return flops;
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::neighborContributionFaceLocal(const ElementData<Real>& ed,
                                                                  int_t face,
                                                                  const Real* faceData, Real* q,
                                                                  Scratch& s) const {
  return surfaceFromFaceLocal(ed, face, faceData, /*neighborSide=*/true, q, s);
}

template <typename Real, int W>
std::uint64_t AderKernels<Real, W>::compressBuffer(int_t ownFace, int_t recvPerm,
                                                   const Real* data, Real* faceOut) const {
  linalg::zeroBlock(faceOut, faceDataSize());
  return applyRight(fluxNeigh_[ownFace][recvPerm], kElasticVars, nb_, nf_, data, faceOut, nb_,
                    nf_);
}

} // namespace nglts::kernels
