// Compressed sparse row matrix (square, real), the workhorse format for
// Laplacians.  Built from triplets; duplicate entries are summed.
//
// Alongside the classic rowptr/colidx/vals arrays the matrix carries a
// SELL-like sliced layout (rows grouped in slices of kSellSlice, entries
// transposed within the slice so lane l, entry j sits at slice_base + j*C + l)
// that the matvec kernels stream for SIMD-friendly access.  Bit-identity with
// the scalar CSR kernels is preserved by construction: each row's entries are
// visited in the same ascending-column order, and short lanes are guarded by
// per-lane lengths — padding slots exist in storage but never enter the
// arithmetic (adding a padded +0.0 would flip a -0.0 accumulator).
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
  /// column, one walk over the matrix whose slices serve every column while
  /// in cache — the epilogue of the fused Chebyshev triad
  /// (linalg/chebyshev).  Per row the product accumulates in the same entry
  /// order as multiply(), then lands as a single y[c][r] += coef*s, so
  /// column c is bitwise the two-pass `ap = multiply(x[c]); axpy(coef, ap,
  /// y[c])` at every thread count.
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

  /// Rows per SELL slice.  A pure constant: slice boundaries are part of the
  /// storage layout, never a tuning knob that could vary between runs.
  static constexpr int kSellSlice = 8;

 private:
  /// (Re)derives the sliced layout from rowptr_/colidx_/vals_.
  void build_sell();

  int n_ = 0;
  std::vector<int> rowptr_;
  std::vector<int> colidx_;
  std::vector<double> vals_;
  // SELL-like sliced storage: slice s covers rows [s*C, s*C+C) and owns
  // sell_ptr_[s+1]-sell_ptr_[s] = width*C slots; row r's j-th entry lives at
  // sell_ptr_[s] + j*C + (r - s*C).  Short rows leave trailing slots as
  // (col=0, val=0) padding that the kernels never read.
  std::vector<std::int64_t> sell_ptr_;
  std::vector<int> sell_cols_;
  std::vector<double> sell_vals_;
};

}  // namespace lapclique::linalg
