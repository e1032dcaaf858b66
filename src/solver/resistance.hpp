// Effective resistances — the canonical application of the Laplacian
// paradigm beyond flows.  R_eff(u,v) = (chi_u - chi_v)^T L^+ (chi_u - chi_v)
// is computed with one Theorem 1.1 solve per query; the clique variant
// charges the solver's round cost and one extra broadcast round.
#pragma once

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

}  // namespace lapclique::solver
