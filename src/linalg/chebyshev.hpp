// Preconditioned Chebyshev iteration (Theorem 2.2, after [Pen13; Saa03]).
//
// Given symmetric PSD A and B with A <= B <= kappa*A (Loewner order), the
// iteration realizes a linear operator Z on b with
//     (1 - eps) A^+  <=  Z  <=  (1 + eps) A^+
// in O(sqrt(kappa) log(1/eps)) iterations, each consisting of one
// matrix-vector product with A, one solve with B, and O(1) vector ops.
//
// This is the engine of Corollary 2.3: with B = alpha*L_H for an
// alpha-approximate sparsifier H, kappa = alpha^2 ... the paper sets
// A := L_G, B := alpha L_H, kappa := alpha (after rewriting
// L_G <= alpha L_H <= alpha^2 L_G); we expose kappa directly.
//
// There is one entry point and it is the multi-RHS one: a single right-hand
// side is a block of one column.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

struct ChebyshevStats {
  int iterations = 0;
  double final_residual = 0;            ///< ||b - A x||_2 (diagnostic only)
  std::vector<double> residual_trace;   ///< per-iteration, when requested
};

struct ChebyshevOptions {
  double eps = 1e-8;        ///< target relative error (Theorem 2.2 sense)
  double kappa = 2.0;       ///< A <= B <= kappa A
  bool record_trace = false;
};

/// Multi-RHS preconditioner application: one call applies B^{-1} to every
/// column, sharing the factor pass (BackendLaplacianFactor::solve_block).
using BlockApplyFn = std::function<std::vector<Vec>(std::span<const Vec>)>;

/// PreconCheby(A, B, b_c, kappa, eps) for every column b_c of `b`: returns
/// x_c ~= A^+ b_c.  `solve_b` applies B^{-1} to a block of columns.
///
/// Each iteration is one fused p/x update pass plus one
/// CsrMatrix::multiply_block_axpy_into (r -= alpha * A p), and one shared
/// solve_b call.  The recurrence coefficients depend only on (kappa, eps) —
/// never on the data — and the iteration count ceil(sqrt(kappa) ln(2/eps)) + 1
/// is fixed up front, so column c of a k-column call is bit-identical to a
/// one-column call on b[c].  Per-column ChebyshevStats land in `stats`
/// (resized to k) when non-null.
std::vector<Vec> preconditioned_chebyshev(const CsrMatrix& a,
                                          const BlockApplyFn& solve_b,
                                          std::span<const Vec> b,
                                          const ChebyshevOptions& opt,
                                          std::vector<ChebyshevStats>* stats = nullptr);

/// Theoretical iteration count for given kappa/eps (Theorem 2.2, item 2).
int chebyshev_iteration_bound(double kappa, double eps);

}  // namespace lapclique::linalg
