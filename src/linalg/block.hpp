#pragma once
// Fixed-size row-major blocks of doubles that carry their structure: the
// setup operators whose shapes the equations fix (9x9 and 6x9 Jacobians, 9x6
// coupling blocks, 9x9 face rotations and Godunov selectors). They live on
// the stack, so per-element operator assembly needs no heap. Each row marks
// the columns that may be nonzero. A product walks only the marked entries
// of its left factor whose right row has a marked entry, so the star
// patterns, the block-diagonal rotation and the 12 face-frame selector
// entries bound the work, and applies each to the whole fixed-size right
// row in one vector loop.
//
// Bitwise contract: every result equals what the dense `linalg::Matrix`
// arithmetic (dense.hpp) gives for the same factors, up to which NaN an
// operation on two NaNs returns. A product sums its
// terms in the same k-ascending order with the same `== 0` skip of the left
// factor. An unmarked entry is +0, and a +-0 term never changes an
// accumulator that starts at +0, so leaving it out, or adding it, changes no
// bit provided the other factor is finite. A non-finite left factor or scale
// marks the whole row it reaches, where inf * 0 and NaN * 0 are NaN in the
// dense result too.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/types.hpp"

namespace nglts::linalg {

template <int_t R, int_t C>
class Block {
  static_assert(R > 0 && C > 0 && C <= 32, "a row's structure is one 32-bit mask");

 public:
  static constexpr int_t rows() { return R; }
  static constexpr int_t cols() { return C; }

  double operator()(int_t r, int_t c) const { return v_[static_cast<std::size_t>(r) * C + c]; }

  /// Entry (r, c) for writing; marks it as structurally nonzero.
  double& at(int_t r, int_t c) {
    mask_[r] |= bit(c);
    return v_[static_cast<std::size_t>(r) * C + c];
  }

  /// The R * C values, row-major.
  const double* data() const { return v_.data(); }

  /// this += b * s entry by entry: the dense `*this + b.scaled(s)`.
  void addScaled(const Block& b, double s) {
    for (int_t r = 0; r < R; ++r) {
      const std::uint32_t cols = finite(s) ? b.mask_[r] : kFullRow;
      mask_[r] |= cols;
      for (std::uint32_t m = cols; m; m &= m - 1) {
        const std::size_t i = static_cast<std::size_t>(r) * C + std::countr_zero(m);
        v_[i] += b.v_[i] * s;
      }
    }
  }

  /// The dense product `*this * rhs`.
  template <int_t K>
  Block<R, K> operator*(const Block<C, K>& rhs) const {
    Block<R, K> out;
    for (int_t i = 0; i < R; ++i) {
      // A local row keeps the sums in registers: it aliases neither factor.
      std::array<double, K> o{};
      std::uint32_t cols = 0;
      for (std::uint32_t m = mask_[i]; m; m &= m - 1) {
        const int_t k = std::countr_zero(m);
        const double a = v_[static_cast<std::size_t>(i) * C + k];
        // An empty rhs row would add only +-0 terms for a finite a.
        if (a == 0.0 || (rhs.mask_[k] == 0 && finite(a))) continue;
        const double* b = rhs.v_.data() + static_cast<std::size_t>(k) * K;
        for (int_t j = 0; j < K; ++j) o[j] += a * b[j];
        cols |= finite(a) ? rhs.mask_[k] : Block<C, K>::kFullRow;
      }
      std::copy(o.begin(), o.end(), out.v_.begin() + static_cast<std::size_t>(i) * K);
      out.mask_[i] = cols;
    }
    return out;
  }

 private:
  template <int_t, int_t>
  friend class Block;

  static constexpr std::uint32_t kFullRow =
      static_cast<std::uint32_t>((std::uint64_t{1} << C) - 1);
  static constexpr std::uint32_t bit(int_t c) { return std::uint32_t{1} << c; }
  static bool finite(double x) { return std::fabs(x) <= std::numeric_limits<double>::max(); }

  std::array<double, static_cast<std::size_t>(R) * C> v_{};
  std::array<std::uint32_t, R> mask_{}; ///< bit c: entry (r, c) may be nonzero
};

/// sum_d w[d] * blocks[d] in ascending d, skipping w[d] == 0: the dense
/// `out = out + blocks[d].scaled(w[d])` chain (a Jacobian in direction w, or
/// a star matrix from a row of the inverse element Jacobian).
template <int_t R, int_t C, std::size_t N>
Block<R, C> linearCombination(const std::array<Block<R, C>, N>& blocks,
                              const std::array<double, N>& w) {
  Block<R, C> out;
  for (std::size_t d = 0; d < N; ++d)
    if (w[d] != 0.0) out.addScaled(blocks[d], w[d]);
  return out;
}

} // namespace nglts::linalg
