#pragma once
// Dense double-precision matrices used in *setup* code: the global DG
// matrices and the attenuation fit. The per-element operator blocks
// (Jacobians, Godunov selectors, flux solvers) are fixed-size stack blocks
// (block.hpp); the hot kernel path uses the fused small-GEMM routines in
// small_gemm.hpp.
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace nglts::linalg {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int_t rows, int_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, fill) {}

  static Matrix identity(int_t n);

  int_t rows() const { return rows_; }
  int_t cols() const { return cols_; }

  double& operator()(int_t r, int_t c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double operator()(int_t r, int_t c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);
  Matrix scaled(double s) const;

  /// Max |a_ij|.
  double maxAbs() const;
  /// Frobenius norm of (this - rhs).
  double distance(const Matrix& rhs) const;
  /// Number of entries with |a_ij| > tol.
  int_t countNonZeros(double tol = 0.0) const;

 private:
  int_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b with partial-pivoting Gaussian elimination. A is n x n.
/// Returns false if A is (numerically) singular.
bool solve(Matrix a, std::vector<double> b, std::vector<double>& x);

/// Invert a square matrix; returns false if singular.
bool invert(const Matrix& a, Matrix& inv);

/// Least-squares solution of min ||A x - b||_2 via Householder QR
/// (A is m x n with m >= n, full column rank).
bool leastSquares(const Matrix& a, const std::vector<double>& b, std::vector<double>& x);

} // namespace nglts::linalg
