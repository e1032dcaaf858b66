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
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique::linalg {

using ApplyFn = std::function<Vec(std::span<const double>)>;

struct ChebyshevStats {
  int iterations = 0;
  double final_residual = 0;            ///< ||b - A x||_2 (diagnostic only)
  std::vector<double> residual_trace;   ///< per-iteration, when requested
};

struct ChebyshevOptions {
  double eps = 1e-8;        ///< target relative error (Theorem 2.2 sense)
  double kappa = 2.0;       ///< A <= B <= kappa A
  int max_iterations = -1;  ///< override; -1 = ceil(sqrt(kappa) ln(2/eps)) + 1
  bool record_trace = false;
  /// Observability: iteration counts are reported here when attached (each
  /// iteration is one model broadcast round in the clique accounting).
  obs::RoundLedger* ledger = nullptr;
  /// Fused-triad fast path.  When non-null, `apply_a` MUST be exactly
  /// "multiply by *a_matrix" (it is then never called): each iteration runs
  /// one fused p/x update pass plus CsrMatrix::multiply_axpy_into instead of
  /// four separate vector sweeps.  Every per-element arithmetic sequence is
  /// unchanged, so the fused iterate is bit-identical to the unfused twin —
  /// tests/test_backend.cpp pins that equality.
  const CsrMatrix* a_matrix = nullptr;
};

/// PreconCheby(A, B, b, kappa, eps): returns x ~= A^+ b.
/// `apply_a` applies A; `solve_b` applies B^{-1} (a solve involving B).
Vec preconditioned_chebyshev(const ApplyFn& apply_a, const ApplyFn& solve_b,
                             std::span<const double> b, const ChebyshevOptions& opt,
                             ChebyshevStats* stats = nullptr);

/// Multi-RHS operator application: one call applies A (or B^{-1}) to every
/// column, sharing the matrix pass (CsrMatrix::multiply_block,
/// BackendLaplacianFactor::solve_block).
using BlockApplyFn = std::function<std::vector<Vec>(std::span<const Vec>)>;

/// Batched PreconCheby over k right-hand sides.  The Chebyshev recurrence
/// coefficients depend only on (kappa, eps) — never on the data — and the
/// iteration count is fixed up front, so column c of the result is
/// bit-identical to preconditioned_chebyshev(b[c]) while every iteration's
/// matvec and preconditioner solve is one shared block pass.  Per-column
/// ChebyshevStats land in `stats` (resized to k) when non-null; the ledger
/// counter records the per-column iteration total, matching k scalar calls.
std::vector<Vec> preconditioned_chebyshev_block(const BlockApplyFn& apply_a,
                                                const BlockApplyFn& solve_b,
                                                std::span<const Vec> b,
                                                const ChebyshevOptions& opt,
                                                std::vector<ChebyshevStats>* stats = nullptr);

/// Theoretical iteration count for given kappa/eps (Theorem 2.2, item 2).
int chebyshev_iteration_bound(double kappa, double eps);

}  // namespace lapclique::linalg
