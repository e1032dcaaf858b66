// Effective resistances — the canonical application of the Laplacian
// paradigm beyond flows.  R_eff(u,v) = (chi_u - chi_v)^T L^+ (chi_u - chi_v)
// is computed with one Theorem 1.1 solve per query; the clique variant
// charges the solver's round cost and one extra broadcast round.
#pragma once

#include <utility>
#include <vector>

#include "solver/clique_laplacian.hpp"

namespace lapclique::solver {

/// Exact effective resistance via a dense pseudoinverse factorization.
/// (Central oracle; used by tests and small-n certification.)
double effective_resistance_exact(const graph::Graph& g, int u, int v);

struct ResistanceReport {
  double resistance = 0;
  RunInfo run;  ///< the solve's rounds + one broadcast of the two potentials
};

/// Theorem 1.1-powered approximation: one eps-accurate Laplacian solve on a
/// caller-configured Network (the Runtime entry points build it).  The
/// relative error of the returned resistance is O(eps).
ResistanceReport effective_resistance_clique(const graph::Graph& g, int u, int v,
                                             double eps,
                                             const LaplacianSolverOptions& opt,
                                             clique::Network& net);

/// A batched pairwise query.
struct PairQuery {
  int u = 0;
  int v = 0;
};

struct BatchResistanceReport {
  /// resistances[i] corresponds to pairs[i].
  std::vector<double> resistances;
  /// One construction + one batched solve + one broadcast round per pair.
  RunInfo run;
  /// Per-pair solver stats (restart schedule, residual, backend).
  std::vector<LaplacianSolveStats> stats;
};

/// Batched pairwise resistances over k pairs riding one
/// LaplacianSolver::solve_block pass on a caller-configured Network (the
/// Runtime entry points build it): the sparsifier and factorization are
/// built once, every Chebyshev iteration's matvec and preconditioner solve
/// is shared across all pairs, and resistances[i] is BIT-IDENTICAL to
/// effective_resistance_clique(g, pairs[i]) on a fresh network (per-column
/// bit-identity of the block solve + the same dot in pair order).  Charged
/// rounds equal k sequential queries' solve rounds against one shared
/// construction, plus one broadcast round per pair for the potentials.
BatchResistanceReport query_pairs(const graph::Graph& g,
                                  std::span<const PairQuery> pairs, double eps,
                                  const LaplacianSolverOptions& opt,
                                  clique::Network& net);

}  // namespace lapclique::solver
