// Sparse left-looking LDL^T for symmetric positive definite matrices in CSR
// and a deterministic fill-reducing ordering: the `sparse` kernel of
// linalg::BackendLaplacianFactor (backend.hpp).
//
// A factorization is two phases.  analyze() reads only the sparsity
// pattern: Liu's elimination tree, then one row-subtree walk per row that
// appends the row to every column of L it reaches, so L's columns come out
// sorted and the full structural pattern is fixed before any arithmetic.
// refactor() runs the numeric left-looking LDL^T on that pattern and can be
// called again for new values on the same pattern — the IPMs refactor one
// analysis for every electrical solve between two topology changes.
// factor() is analyze() + refactor().
//
// The structural pattern is exactly the numeric one for the matrices this
// library factors: grounded Laplacians are M-matrices, so every Schur
// update to an off-diagonal entry has the same sign and nothing cancels to
// zero.  Everything here is sequential and therefore trivially bit-stable
// across thread counts; determinism only requires that the ordering itself
// be a pure function of the sparsity pattern, which rcm_ordering
// guarantees by breaking every tie on the smaller vertex id.
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
[[nodiscard]] std::vector<int> rcm_ordering(int n, std::span<const int> row_ptr,
                                            std::span<const int> col_idx);
/// rcm_ordering of a's pattern.
[[nodiscard]] std::vector<int> rcm_ordering(const CsrMatrix& a);

class SparseLdlt {
 public:
  SparseLdlt() = default;

  /// Pattern-only analysis of a symmetric n x n CSR pattern (both
  /// triangles stored; the diagonal may be absent).  Allocates L's pattern
  /// with zero values and keeps the pattern for refactor().
  static SparseLdlt analyze(int n, std::span<const int> row_ptr,
                            std::span<const int> col_idx);

  /// Numeric LDL^T of the analyzed pattern with `values` in its CSR slot
  /// order.  Throws on pivot collapse, leaving the factor unusable.
  void refactor(std::span<const double> values, double min_pivot = 1e-300);

  /// analyze(a's pattern) + refactor(a's values).  Throws on pivot collapse.
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
  // The analyzed matrix's CSR pattern, which refactor() scatters from.
  std::vector<int> a_rowptr_;
  std::vector<int> a_colidx_;
  // Column-compressed unit lower triangle (strictly below diagonal).
  std::vector<int> colptr_;
  std::vector<int> rowidx_;
  std::vector<double> vals_;
  std::vector<double> d_;
};

}  // namespace lapclique::linalg
