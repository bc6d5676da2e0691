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
#include <array>
#include <vector>

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

template <typename Real>
struct ElementData {
  /// Leaves the arrays unset: buildElementData writes every entry in place,
  /// so a vector of them is not zero-filled first.
  ElementData() {}

  /// Elastic star matrices \bar A^e_c, c = xi_1..xi_3: starEPattern() values.
  std::array<std::array<Real, kStarENnz>, 3> starE;
  /// Anelastic star matrices \bar A^a_c (omega-free): starAPattern() values.
  std::array<std::array<Real, kStarANnz>, 3> starA;
  /// Coupling blocks E_l: couplePattern() values, concatenated over mechanisms.
  std::vector<Real> couple;
  /// Per-face elastic flux solvers (local/minus and neighbor/plus side),
  /// 9x9 row-major, scaling and signs folded in.
  std::array<std::array<Real, 81>, 4> fluxSolveE;
  std::array<std::array<Real, 81>, 4> fluxSolveENeigh;
  /// Per-face anelastic flux solvers (omega-free), 6x9 row-major.
  std::array<std::array<Real, 54>, 4> fluxSolveA;
  std::array<std::array<Real, 54>, 4> fluxSolveANeigh;
};

} // namespace nglts::kernels
