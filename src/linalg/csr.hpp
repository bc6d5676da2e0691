#pragma once
// Compressed sparse row storage for the small, *static* DG operator matrices
// (stiffness, flux matrices). The sparsity patterns are fixed at setup
// time, mirroring EDGE's manual exploitation of (block-)sparsity (Sec. IV-A).
#include <vector>

#include "common/types.hpp"
#include "linalg/dense.hpp"

namespace nglts::linalg {

/// CSR matrix with values stored in the kernel scalar type `Real`.
template <typename Real>
struct Csr {
  int_t rows = 0, cols = 0;
  std::vector<int_t> rowPtr;  // rows + 1 entries
  std::vector<int_t> colIdx;  // nnz entries
  std::vector<Real> values;   // nnz entries

  int_t nnz() const { return static_cast<int_t>(values.size()); }
};

/// Drop-tolerance conversion from a dense setup matrix.
template <typename Real>
Csr<Real> toCsr(const Matrix& dense, double tol = 1e-14);

/// Reconstruct a dense matrix (tests / debugging).
template <typename Real>
Matrix toDense(const Csr<Real>& csr);

extern template Csr<float> toCsr<float>(const Matrix&, double);
extern template Csr<double> toCsr<double>(const Matrix&, double);
extern template Matrix toDense<float>(const Csr<float>&);
extern template Matrix toDense<double>(const Csr<double>&);

} // namespace nglts::linalg
