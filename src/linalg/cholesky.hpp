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

#include "linalg/pivot_collapse.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

/// Dense LDL^T of an SPD matrix (no pivoting; the matrices we factor are
/// diagonally dominant).  Throws PivotCollapse if a pivot's magnitude is
/// not above `min_pivot`.
///
/// Layout: L is stored once, column-major — column j of the unit lower
/// triangle is the contiguous run lt_[j*n + i], i > j — next to D's diagonal.
///
/// Per-entry order: every entry runs the textbook row-oriented sequence
///   acc = A(i,j);  acc -= (L(i,k) * L(j,k)) * d(k) for k ascending;
///   L(i,j) = acc / d(j),
/// and the pivot d(j) is the same chain at i = j.  It is computed
/// column-oriented: for each k, column j absorbs column k of L over all
/// rows i > j in one contiguous loop, four k at a time.
///
/// Skip: a k with L(j,k) == ±0 is left out while every L and d entry
/// computed so far is finite and column j of A, on and below the diagonal,
/// holds no -0.  The left-out term is then ±0, and acc - (±0) == acc unless
/// acc is -0.  acc never is: it starts as an A entry that is not -0, and an
/// IEEE subtraction yields -0 only as (-0) - (+0).  So the factor's bits are
/// those of the row-oriented kernel that runs every k
/// (tests/support/dense_ldlt_reference.hpp).
class DenseLdlt {
 public:
  DenseLdlt() = default;

  /// `dense` is row-major n*n; only its lower triangle and diagonal are read.
  static DenseLdlt factor(int n, std::span<const double> dense,
                          double min_pivot = 1e-300);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] Vec solve(std::span<const double> b) const;
  void solve_inplace(std::span<double> x) const;

  /// solve_inplace on every column; throws before touching any column if
  /// one has the wrong size.
  void solve_block_inplace(std::span<Vec> xs) const;

 private:
  int n_ = 0;
  std::vector<double> lt_;  ///< L column-major: lt_[j*n + i] = L(i,j), i > j
  std::vector<double> d_;   ///< diagonal of D
};

}  // namespace lapclique::linalg
