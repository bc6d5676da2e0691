#pragma once
// Per-element, precomputed operator data of the discrete scheme (Sec. III):
// the element-local star matrices (linear combinations of the Jacobians with
// the inverse element Jacobian), the anelastic coupling blocks, and the
// per-face flux solver matrices with the Godunov selectors, surface scaling
// 2|S_i|/|J| and sign conventions folded in.
//
// The star and coupling blocks have the fixed sparsity of the Jacobians, so
// each element stores only the values of one shared pattern per block kind
// (the EDGE/SeisSol layout): starEPattern() holds 24 of the 81 entries of a
// 9x9 elastic star block, starAPattern() 9 of the 54 of a 6x9 anelastic one,
// couplePattern() 12 of the 54 of a 9x6 coupling block. The flux solvers
// are dense and stay full row-major blocks.
//
// The data is split by what the physics reads. Every run reads the elastic
// blocks (`ElasticOperators`); only an anelastic run (mechanisms > 0) reads
// the anelastic blocks and the coupling values, so `OperatorData` allocates
// them only then. `ElementData` is the kernels' view of one element: three
// pointers into those arenas, returned by value.
#include <array>
#include <cstddef>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "linalg/small_gemm.hpp"

namespace nglts::kernels {

inline constexpr int_t kStarENnz = 24;  ///< starEPattern().nnz()
inline constexpr int_t kStarANnz = 9;   ///< starAPattern().nnz()
inline constexpr int_t kCoupleNnz = 12; ///< couplePattern().nnz()

/// Union over the three directions of the elastic Jacobian pattern (9x9).
const linalg::StarPattern& starEPattern();
/// Union over the three directions of the anelastic Jacobian pattern (6x9).
const linalg::StarPattern& starAPattern();
/// Pattern of a coupling block E_l (9x6; the velocity rows are empty).
const linalg::StarPattern& couplePattern();

/// The blocks every run reads. Trivially default-constructible: the arena
/// leaves them unset and the assembly writes every entry in place.
template <typename Real>
struct ElasticOperators {
  /// Elastic star matrices \bar A^e_c, c = xi_1..xi_3: starEPattern() values.
  std::array<std::array<Real, kStarENnz>, 3> starE;
  /// Per-face elastic flux solvers (local/minus and neighbor/plus side),
  /// 9x9 row-major, scaling and signs folded in.
  std::array<std::array<Real, 81>, 4> fluxSolveE;
  std::array<std::array<Real, 81>, 4> fluxSolveENeigh;
};
static_assert(sizeof(ElasticOperators<double>) == 5760);
static_assert(sizeof(ElasticOperators<float>) == 2880);

/// The fixed-size blocks only an anelastic run reads (the coupling values,
/// whose count depends on the mechanisms, are stored next to them).
template <typename Real>
struct AnelasticOperators {
  /// Anelastic star matrices \bar A^a_c (omega-free): starAPattern() values.
  std::array<std::array<Real, kStarANnz>, 3> starA;
  /// Per-face anelastic flux solvers (omega-free), 6x9 row-major.
  std::array<std::array<Real, 54>, 4> fluxSolveA;
  std::array<std::array<Real, 54>, 4> fluxSolveANeigh;
};
static_assert(sizeof(AnelasticOperators<double>) == 3672);
static_assert(sizeof(AnelasticOperators<float>) == 1836);

/// One element's operators, as the kernels read them.
template <typename Real>
struct ElementData {
  const ElasticOperators<Real>* elastic = nullptr;
  /// Null in an elastic run (no mechanisms).
  const AnelasticOperators<Real>* anelastic = nullptr;
  /// Coupling blocks E_l: couplePattern() values, concatenated over the
  /// run's mechanisms. Null in an elastic run.
  const Real* couple = nullptr;
};

/// The operator data of a list of elements: one elastic arena, plus one
/// anelastic arena (fixed blocks and flat coupling values) that exists only
/// when `mechanisms` > 0. The arenas are left unset by construction
/// (arena_vector), so the parallel assembly is their first touch.
template <typename Real>
class OperatorData {
 public:
  OperatorData() = default;
  OperatorData(idx_t numElements, int_t mechanisms)
      : elastic_(static_cast<std::size_t>(numElements)), mechanisms_(mechanisms) {
    if (mechanisms > 0) {
      anelastic_.resize(static_cast<std::size_t>(numElements));
      couple_.resize(static_cast<std::size_t>(numElements) * coupleStride());
    }
  }

  idx_t size() const { return static_cast<idx_t>(elastic_.size()); }

  ElementData<Real> operator[](idx_t i) const {
    if (mechanisms_ == 0) return {&elastic_[i]};
    return {&elastic_[i], &anelastic_[i], couple_.data() + i * coupleStride()};
  }

  ElasticOperators<Real>& elastic(idx_t i) { return elastic_[i]; }
  /// Null in an elastic run, like `couple`.
  AnelasticOperators<Real>* anelastic(idx_t i) {
    return mechanisms_ == 0 ? nullptr : &anelastic_[i];
  }
  Real* couple(idx_t i) {
    return mechanisms_ == 0 ? nullptr : couple_.data() + i * coupleStride();
  }

  /// Bytes the elastic and the anelastic arena hold.
  std::size_t elasticBytes() const { return elastic_.size() * sizeof(ElasticOperators<Real>); }
  std::size_t anelasticBytes() const {
    return anelastic_.size() * sizeof(AnelasticOperators<Real>) + couple_.size() * sizeof(Real);
  }

 private:
  std::size_t coupleStride() const { return static_cast<std::size_t>(mechanisms_) * kCoupleNnz; }

  arena_vector<ElasticOperators<Real>> elastic_;
  arena_vector<AnelasticOperators<Real>> anelastic_;
  arena_vector<Real> couple_;
  int_t mechanisms_ = 0;
};

} // namespace nglts::kernels
