#pragma once
// The halo of the distributed path (paper Sec. V-C) on the layered solver
// engine: every rank's `SolverState` is built from the global mesh with its
// owned elements first (cluster-contiguous) and ids for its *halo* — the
// remote face-neighbors — after them, outside every executor range and
// without arena slots. `HaloNeighborData` decorates the scheme's
// `NeighborDataPolicy`: owned faces are served by the wrapped policy
// straight from the arena, cross-rank faces from ghost slots filled by the
// message-passing layer.
//
// Ghost slots are written serially between schedule ops (the classic
// pack/exchange/compute pattern) and read concurrently by the executor's
// parallel neighbor loop — the policy itself never touches the communicator.
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "solver/config.hpp"
#include "solver/executor.hpp"
#include "solver/state.hpp"

namespace nglts::parallel {

/// Cluster relation of the remote element across a cross-rank face, seen
/// from the local element (producer or consumer — the relation is the same
/// label from both sides of a send/receive pair by symmetry of its use).
enum class HaloRelation : int_t {
  kEqual = 0,     ///< remote element in the same time cluster
  kRemoteSmaller, ///< remote element in a smaller (faster) cluster
  kRemoteLarger   ///< remote element in a larger (slower) cluster
};

/// Ghost storage of one cross-rank face, owned by the consuming rank.
/// `ds0`/`ds1` hold the received datasets: the next-generation scheme keeps
/// B2 in ds0 and B1 - B2 in ds1 for a larger remote neighbor (one message
/// serves two local sub-steps), everything else lives in ds0 (B1 or B3
/// buffers — raw 9 x B or compressed 9 x F — or the baseline scheme's
/// trimmed derivative stack, unpacked to full layout).
template <typename Real>
struct GhostSlot {
  HaloRelation rel = HaloRelation::kEqual;
  int_t srcRank = 0;
  std::int64_t tag = 0;        ///< producer's global element id * 4 + face
  aligned_vector<Real> ds0, ds1;
};

template <typename Real>
struct HaloGhosts {
  /// (internal halo id - numOwned) * 4 + producerFace -> slot index or -1.
  std::vector<idx_t> slotOf;
  std::vector<GhostSlot<Real>> slots;
};

/// Neighbor-data decorator of the distributed path: owned faces delegate to
/// the wrapped scheme policy (three-buffer / baseline — identical
/// arithmetic to the single-process engine), cross-rank faces are served
/// from the rank's ghost slots. With `compressFaces` the ghost payloads of
/// the GTS/next-generation schemes are the face-local 9 x F projections
/// (`faceLocal()` routes them to `neighborContributionFaceLocal`); the
/// baseline scheme always ships raw data (its equal/larger-neighbor payload
/// is a derivative stack that the consumer must re-integrate first).
template <typename Real, int W>
class HaloNeighborData final : public solver::NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename solver::NeighborDataPolicy<Real, W>::Scratch;

  HaloNeighborData(std::unique_ptr<solver::NeighborDataPolicy<Real, W>> inner,
                   const solver::SolverState<Real, W>& state,
                   const kernels::AderKernels<Real, W>& kernels, solver::TimeScheme scheme,
                   bool compressFaces, std::vector<double> clusterDt,
                   const HaloGhosts<Real>* ghosts)
      : inner_(std::move(inner)),
        state_(state),
        kernels_(kernels),
        scheme_(scheme),
        compress_(compressFaces),
        clusterDt_(std::move(clusterDt)),
        ghosts_(ghosts) {}

  const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                   std::uint64_t& flops) const override {
    if (!state_.isHalo(fi.neighbor)) return inner_->data(el, fi, myStep, s, flops);
    const idx_t slot =
        ghosts_->slotOf[(fi.neighbor - state_.numOwned()) * 4 + fi.neighborFace];
    const GhostSlot<Real>& g = ghosts_->slots[slot];
    if (scheme_ == solver::TimeScheme::kLtsBaseline) {
      if (g.rel == HaloRelation::kRemoteSmaller) return g.ds0.data(); // remote B3
      // Re-integrate the remote derivative stack over this element's
      // interval — the same receiver-side evaluation as the shared-memory
      // BufferDerivativeNeighborData (bitwise-identical arithmetic).
      const double dtMe = clusterDt_[state_.clusterOf(el)];
      const double a = (g.rel == HaloRelation::kRemoteLarger && (myStep % 2)) ? dtMe : 0.0;
      flops += kernels_.integrateDerivStack(g.ds0.data(), static_cast<Real>(a),
                                            static_cast<Real>(dtMe), s.bufCombo.data());
      return s.bufCombo.data();
    }
    // GTS / next-generation: one message of a larger remote neighbor serves
    // two local sub-steps — B2 on the even one, B1 - B2 on the odd one.
    if (g.rel == HaloRelation::kRemoteLarger && (myStep % 2)) return g.ds1.data();
    return g.ds0.data();
  }

  bool faceLocal(idx_t, const mesh::FaceInfo& fi) const override {
    return compress_ && scheme_ != solver::TimeScheme::kLtsBaseline &&
           state_.isHalo(fi.neighbor);
  }

  bool needsDerivStack() const override { return inner_->needsDerivStack(); }

 private:
  std::unique_ptr<solver::NeighborDataPolicy<Real, W>> inner_;
  const solver::SolverState<Real, W>& state_;
  const kernels::AderKernels<Real, W>& kernels_;
  solver::TimeScheme scheme_;
  bool compress_;
  std::vector<double> clusterDt_;
  const HaloGhosts<Real>* ghosts_;
};

} // namespace nglts::parallel
