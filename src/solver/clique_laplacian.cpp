#include "solver/clique_laplacian.hpp"

#include <stdexcept>

#include "graph/connectivity.hpp"

namespace lapclique::solver {

CliqueSolveReport solve_laplacian_clique(const graph::Graph& g,
                                         std::span<const double> b, double eps,
                                         const LaplacianSolverOptions& opt,
                                         clique::Network& net) {
  if (g.num_vertices() < 2) {
    throw std::invalid_argument("solve_laplacian_clique: n >= 2 required");
  }
  if (!graph::is_connected(g)) {
    throw std::invalid_argument(
        "solve_laplacian_clique: graph must be connected (solve components "
        "separately)");
  }
  CliqueLaplacianSolver solver(g, opt, net);
  CliqueSolveReport rep;
  rep.x = solver.solve(b, eps, &rep.stats);
  rep.run.capture(net);
  rep.run.numerics = linalg::to_string(rep.stats.factor.chosen);
  rep.run.factor_fill = rep.stats.factor.fill_nnz;
  return rep;
}

CliqueLaplacianSolver::CliqueLaplacianSolver(const graph::Graph& g,
                                             const LaplacianSolverOptions& opt,
                                             clique::Network& net)
    : solver_(g, opt, &net), net_(&net) {}

linalg::Vec CliqueLaplacianSolver::solve(std::span<const double> b, double eps,
                                         LaplacianSolveStats* stats) const {
  return solver_.solve(b, eps, stats, net_);
}

}  // namespace lapclique::solver
