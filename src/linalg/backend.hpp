// The linalg::Backend seam: which LDL^T kernel factors a Laplacian.  The
// matrix picks it: kAuto resolves from (n, nnz) alone (resolve_backend), a
// pure function, so the choice is deterministic and environment-free, and
// every reader of the factor's bits sees the same kernel for the same
// instance.  The choice is reported back through FactorStats →
// LaplacianSolveStats / RunInfo, so traces, benches, serve bodies and golden
// tests can pin which kernel actually ran.  An explicit kDense / kSparse
// request exists only at this layer, for the kernel-against-kernel tests.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/cholesky.hpp"
#include "linalg/sparse_cholesky.hpp"

namespace lapclique::linalg {

enum class Backend {
  kAuto = 0,   ///< resolve from instance size/sparsity (resolve_backend)
  kDense = 1,  ///< dense LDL^T (linalg/cholesky)
  kSparse = 2  ///< RCM-ordered sparse LDL^T (linalg/sparse_cholesky)
};

[[nodiscard]] const char* to_string(Backend b);

/// Resolves kAuto for an n-vertex Laplacian with nnz stored entries: sparse
/// once n >= 512 and at most 1/16 of the entries are stored, dense
/// otherwise.  That threshold came from timing kernels that have since been
/// replaced, so it no longer marks where sparse wins (docs/PERFORMANCE.md).
/// Explicit requests pass through.
[[nodiscard]] Backend resolve_backend(Backend requested, int n, std::int64_t nnz);

/// What a factorization did, surfaced through solver stats and RunInfo.
struct FactorStats {
  Backend chosen = Backend::kDense;  ///< what actually ran
  int n = 0;                         ///< matrix dimension
  std::int64_t nnz = 0;              ///< stored entries of the Laplacian
  std::int64_t fill_nnz = 0;         ///< nonzeros in the factor (diag incl.)
};

/// The Laplacian pseudoinverse, x = L^+ b, for a connected or disconnected
/// Laplacian.  A factor is two phases:
///   * analyze() reads only the pattern: it finds the components, grounds
///     the first vertex reached in each, resolves the backend, and maps
///     every entry of L to its place in the grounded matrix the kernel
///     factors (entries touching a grounded vertex dropped, grounded
///     diagonals pinned to 1, so the matrix is SPD):
///       - dense: a row-major n x n copy, factored by DenseLdlt;
///       - sparse: the grounded pattern RCM-permuted (rcm_ordering), whose
///         elimination tree and L pattern SparseLdlt::analyze fixes here;
///   * refactor() fills the grounded matrix from L's values through that map
///     and runs the kernel's numeric factor.  It may run again for new
///     values on the same pattern; the IPMs refactor one analysis for every
///     electrical solve between topology changes.
/// factor() is analyze() + refactor().  Every solve projects b onto range(L)
/// (per-component mean removed, grounded entries zeroed) and normalizes x to
/// per-component mean zero with the same arithmetic under either backend,
/// so the two kernels differ in substitution bits only.  No round charge
/// reads the backend; a caller that branches on solution bits (min-cost flow
/// rounding starts from the IPM's fractional flow) sees the same kernel for
/// the same instance, because kAuto is a function of the pattern.
class BackendLaplacianFactor {
 public:
  BackendLaplacianFactor() = default;

  /// Pattern-only analysis of an n-vertex Laplacian's CSR pattern.  Every
  /// caller above linalg leaves `requested` at kAuto; an explicit kernel is
  /// for the tests that compare one kernel against the other.
  static BackendLaplacianFactor analyze(int n, std::span<const int> row_ptr,
                                        std::span<const int> col_idx,
                                        Backend requested = Backend::kAuto);

  /// Numeric factor for `values` in the analyzed pattern's CSR slot order.
  /// Throws on pivot collapse, leaving the factor unusable.
  void refactor(std::span<const double> values);

  static BackendLaplacianFactor factor(const CsrMatrix& laplacian,
                                       Backend requested = Backend::kAuto);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const FactorStats& stats() const { return stats_; }
  [[nodiscard]] Backend chosen() const { return stats_.chosen; }

  /// x = L^+ b.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Multi-RHS pseudoinverse action: column c is bit-identical to
  /// solve(b[c]) — projection, substitution, and normalization all run the
  /// per-column arithmetic of the scalar path while sharing the factor walk.
  [[nodiscard]] std::vector<Vec> solve_block(std::span<const Vec> b) const;

 private:
  /// Overwrites each column b with L^+ b.
  void solve_columns(std::vector<Vec>& xs) const;
  /// Subtracts from x its mean over each component, in ascending vertex order.
  void remove_component_means(Vec& x) const;

  int n_ = 0;
  FactorStats stats_;
  std::vector<int> comp_;       ///< component id per vertex
  std::vector<int> comp_size_;  ///< vertex count per component
  std::vector<int> grounded_;   ///< one grounded vertex per component
  std::vector<int> perm_;       ///< sparse only: RCM order, perm_[new] = old
  /// Per CSR slot of L: its index in the kernel's input (dense: row-major
  /// position; sparse: CSR slot of the permuted grounded matrix), or -1 when
  /// the entry touches a grounded vertex.
  std::vector<std::int64_t> slot_;
  std::vector<std::int64_t> pinned_;  ///< kernel-input indices of the 1s
  std::size_t kernel_values_ = 0;     ///< length of the kernel's input
  // Exactly one kernel is populated (the other stays empty); dispatch is a
  // branch on stats_.chosen, fixed at analysis time.
  DenseLdlt dense_;
  SparseLdlt sparse_;
};

}  // namespace lapclique::linalg
