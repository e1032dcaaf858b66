// Dense LDL^T factorization for symmetric positive definite systems: the
// `dense` kernel of linalg::BackendLaplacianFactor (backend.hpp), which
// grounds one vertex per component of a Laplacian and hands the pinned, SPD
// matrix to DenseLdlt.
//
// The congested-clique Laplacian solver (Theorem 1.1) solves systems in the
// *sparsifier* L_H internally at every node; since H is globally known and
// has O(n log n) edges this factorization is the "internal computation" the
// model charges zero rounds for.
#pragma once

#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

/// Dense LDL^T of an SPD matrix (no pivoting; the matrices we factor are
/// diagonally dominant).  Throws if a pivot collapses below `min_pivot`.
class DenseLdlt {
 public:
  DenseLdlt() = default;

  /// `dense` is row-major n*n, symmetric.
  static DenseLdlt factor(int n, std::span<const double> dense,
                          double min_pivot = 1e-300);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] Vec solve(std::span<const double> b) const;
  void solve_inplace(std::span<double> x) const;

  /// Multi-RHS triangular solves: one walk over the factor serves every
  /// column.  The row/block schedule is exactly solve_inplace's, with an
  /// inner loop over columns, so each column's floating-point reduction
  /// order — and therefore its bits — matches a standalone solve.
  void solve_block_inplace(std::span<Vec> xs) const;

 private:
  int n_ = 0;
  std::vector<double> l_;   ///< unit lower triangle, row-major packed n*n
  std::vector<double> lt_;  ///< transpose of l_ (row i = column i of L), so
                            ///< backward substitution streams contiguously
  std::vector<double> d_;   ///< diagonal of D
};

}  // namespace lapclique::linalg
