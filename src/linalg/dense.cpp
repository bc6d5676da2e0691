#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

namespace nglts::linalg {

Matrix Matrix::identity(int_t n) {
  Matrix m(n, n);
  for (int_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (int_t r = 0; r < rows_; ++r)
    for (int_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (int_t i = 0; i < rows_; ++i)
    for (int_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (int_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
    }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::scaled(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

double Matrix::maxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::distance(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - rhs.data_[i];
    s += d * d;
  }
  return std::sqrt(s);
}

int_t Matrix::countNonZeros(double tol) const {
  int_t n = 0;
  for (double v : data_)
    if (std::fabs(v) > tol) ++n;
  return n;
}

bool solve(Matrix a, std::vector<double> b, std::vector<double>& x) {
  const int_t n = a.rows();
  assert(a.cols() == n && static_cast<int_t>(b.size()) == n);
  for (int_t col = 0; col < n; ++col) {
    // Partial pivot.
    int_t piv = col;
    for (int_t r = col + 1; r < n; ++r)
      if (std::fabs(a(r, col)) > std::fabs(a(piv, col))) piv = r;
    if (std::fabs(a(piv, col)) < 1e-300) return false;
    if (piv != col) {
      for (int_t c = col; c < n; ++c) std::swap(a(col, c), a(piv, c));
      std::swap(b[col], b[piv]);
    }
    const double inv = 1.0 / a(col, col);
    for (int_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) * inv;
      if (f == 0.0) continue;
      for (int_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  x.assign(n, 0.0);
  for (int_t r = n - 1; r >= 0; --r) {
    double s = b[r];
    for (int_t c = r + 1; c < n; ++c) s -= a(r, c) * x[c];
    x[r] = s / a(r, r);
  }
  return true;
}

bool invert(const Matrix& a, Matrix& inv) {
  const int_t n = a.rows();
  assert(a.cols() == n);
  inv = Matrix(n, n);
  std::vector<double> e(n, 0.0), col;
  for (int_t j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), 0.0);
    e[j] = 1.0;
    if (!solve(a, e, col)) return false;
    for (int_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return true;
}

bool leastSquares(const Matrix& a, const std::vector<double>& b, std::vector<double>& x) {
  const int_t m = a.rows(), n = a.cols();
  assert(static_cast<int_t>(b.size()) == m && m >= n);
  Matrix r = a;
  std::vector<double> rhs = b;
  // Householder QR applied in-place; R accumulates in the upper triangle.
  for (int_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (int_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-300) return false;
    if (r(k, k) > 0) norm = -norm;
    std::vector<double> v(m - k);
    for (int_t i = k; i < m; ++i) v[i - k] = r(i, k);
    v[0] -= norm;
    double vnorm2 = 0.0;
    for (double vi : v) vnorm2 += vi * vi;
    if (vnorm2 < 1e-300) continue;
    const double beta = 2.0 / vnorm2;
    for (int_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (int_t i = k; i < m; ++i) dot += v[i - k] * r(i, j);
      dot *= beta;
      for (int_t i = k; i < m; ++i) r(i, j) -= dot * v[i - k];
    }
    double dot = 0.0;
    for (int_t i = k; i < m; ++i) dot += v[i - k] * rhs[i];
    dot *= beta;
    for (int_t i = k; i < m; ++i) rhs[i] -= dot * v[i - k];
  }
  x.assign(n, 0.0);
  for (int_t i = n - 1; i >= 0; --i) {
    double s = rhs[i];
    for (int_t j = i + 1; j < n; ++j) s -= r(i, j) * x[j];
    if (std::fabs(r(i, i)) < 1e-300) return false;
    x[i] = s / r(i, i);
  }
  return true;
}

} // namespace nglts::linalg
