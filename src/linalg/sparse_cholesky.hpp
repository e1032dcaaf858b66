// Sparse left-looking LDL^T for symmetric positive definite matrices in CSR
// and a deterministic fill-reducing ordering: the `sparse` kernel of
// linalg::BackendLaplacianFactor (backend.hpp).
//
// The sparsifiers this library factors have O(n log n) edges.  On the
// committed BENCH_laplacian.json crossover (L_G of gnm graphs with m = 4n)
// the RCM-ordered sparse factor carries about half the dense fill and is
// about 2x faster on factor+solve from n >= 1024 (n = 1024: 72 vs 160 ms to
// factor; n = 2048: 745 vs 1421 ms); at n = 256 the dense factor is faster.
// Everything here is sequential and therefore trivially bit-stable across
// thread counts; determinism only requires that the ordering itself be a
// pure function of the sparsity pattern, which rcm_ordering guarantees by
// breaking every tie on the smaller vertex id.
#pragma once

#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

/// Reverse Cuthill–McKee ordering of a symmetric CSR pattern, fully
/// deterministic: per component the BFS starts from the minimum-degree
/// vertex (ties → smallest id) and neighbors enqueue sorted by
/// (degree, id).  Returns perm with perm[new_pos] = old_index.
[[nodiscard]] std::vector<int> rcm_ordering(const CsrMatrix& a);

class SparseLdlt {
 public:
  SparseLdlt() = default;

  /// Factors an SPD CSR matrix.  Throws on pivot collapse.
  static SparseLdlt factor(const CsrMatrix& a, double min_pivot = 1e-300);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int64_t fill_nnz() const;

  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Multi-RHS triangular solves: one walk over the factor serves every
  /// column.  The column-oriented schedule is exactly solve()'s with an
  /// inner loop over RHS columns, so each column's floating-point reduction
  /// order — and therefore its bits — matches a standalone solve.
  void solve_block_inplace(std::span<Vec> xs) const;

 private:
  int n_ = 0;
  // Column-compressed unit lower triangle (strictly below diagonal).
  std::vector<int> colptr_;
  std::vector<int> rowidx_;
  std::vector<double> vals_;
  std::vector<double> d_;
};

}  // namespace lapclique::linalg
