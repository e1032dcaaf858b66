// Theorem 1.1: deterministic Laplacian solving in the congested clique in
// n^{o(1)} log(U/eps) rounds.
//
// This is the user-facing distributed entry point: it builds the n-node
// clique network (vertex v's vector entries live at node v), runs the
// sparsifier + preconditioned-Chebyshev pipeline with full round accounting,
// and reports the measured model rounds next to the theorem's bound.
#pragma once

#include <cstdint>
#include <string>

#include "cliquesim/network.hpp"
#include "cliquesim/run_info.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::solver {

struct CliqueSolveReport {
  linalg::Vec x;
  RunInfo run;  ///< rounds/words/phase breakdown (sparsify / gather / ...)
  LaplacianSolveStats stats;
};

/// One-shot Theorem 1.1 solve on a caller-configured Network (tracer, fault
/// plan, routing mode) — the lapclique::Runtime entry points build it.
/// Requires a connected graph with positive weights.  eps in (0, 1/2].
CliqueSolveReport solve_laplacian_clique(const graph::Graph& g,
                                         std::span<const double> b, double eps,
                                         const LaplacianSolverOptions& opt,
                                         clique::Network& net);

/// Reusable variant: keeps the sparsifier/factorization and the Network so
/// interior-point methods can issue many solves against one graph topology
/// while accumulating rounds in one ledger.
class CliqueLaplacianSolver {
 public:
  CliqueLaplacianSolver(const graph::Graph& g, const LaplacianSolverOptions& opt,
                        clique::Network& net);

  [[nodiscard]] linalg::Vec solve(std::span<const double> b, double eps,
                                  LaplacianSolveStats* stats = nullptr) const;

  [[nodiscard]] const LaplacianSolver& inner() const { return solver_; }

 private:
  LaplacianSolver solver_;
  clique::Network* net_;
};

}  // namespace lapclique::solver
