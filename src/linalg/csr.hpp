// Compressed sparse row matrix (square, real), the workhorse format for
// Laplacians.  Built from triplets; duplicate entries are summed.  Both
// matvec kernels walk the rows in order, and each row's sum starts at 0.0
// and adds its entries in ascending column order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0;
};

/// Sorts by (row, col): the order from_triplets sums duplicates in.  The
/// sort is not stable, so equal keys land in an order only this function
/// fixes; it moves triplets by comparing keys alone, so a caller that tags
/// each triplet through `value` learns the exact summation order
/// from_triplets would use on the same keys.
void sort_triplets(std::span<Triplet> t);

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds an n x n matrix from triplets (duplicates summed, zeros dropped).
  static CsrMatrix from_triplets(int n, std::span<const Triplet> triplets);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int64_t nnz() const { return static_cast<std::int64_t>(vals_.size()); }

  [[nodiscard]] Vec multiply(std::span<const double> x) const;
  void multiply_into(std::span<const double> x, std::span<double> y) const;

  /// Multi-RHS fused matvec-accumulate: y[c] += coef * (A x[c]) for every
  /// column, one walk over the matrix whose rows serve every column while
  /// in cache — the epilogue of the fused Chebyshev triad
  /// (linalg/chebyshev).  Per row the product accumulates in the same entry
  /// order as multiply(), then lands as a single y[c][r] += coef*s, so
  /// column c is bitwise the two-pass `ap = multiply(x[c]); axpy(coef, ap,
  /// y[c])`.
  void multiply_block_axpy_into(double coef, std::span<const Vec> x,
                                std::span<Vec> y) const;

  /// x^T A x
  [[nodiscard]] double quadratic_form(std::span<const double> x) const;

  [[nodiscard]] std::span<const int> row_ptr() const { return rowptr_; }
  [[nodiscard]] std::span<const int> col_idx() const { return colidx_; }
  [[nodiscard]] std::span<const double> values() const { return vals_; }

  /// Entry lookup (binary search within the row); 0 if absent.
  [[nodiscard]] double at(int r, int c) const;

  /// Dense copy (row-major), for small-n tests and dense factorizations.
  [[nodiscard]] std::vector<double> to_dense() const;

  /// A + B (same size).
  [[nodiscard]] CsrMatrix plus(const CsrMatrix& other) const;
  /// alpha * A
  [[nodiscard]] CsrMatrix scaled(double alpha) const;

 private:
  int n_ = 0;
  std::vector<int> rowptr_;
  std::vector<int> colidx_;
  std::vector<double> vals_;
};

}  // namespace lapclique::linalg
