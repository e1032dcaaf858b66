#include "flow/electrical.hpp"

#include <stdexcept>

#include "exec/pool.hpp"
#include "graph/laplacian.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::flow {

namespace {

graph::Graph conductance_graph(int n, std::span<const ElectricalEdge> edges) {
  graph::Graph g(n);
  for (const ElectricalEdge& e : edges) {
    if (!(e.resistance > 0)) {
      throw std::invalid_argument("ElectricalSolver: resistances must be positive");
    }
    g.add_edge(e.u, e.v, 1.0 / e.resistance);
  }
  return g;
}

}  // namespace

ElectricalSolver::ElectricalSolver(int n, std::vector<ElectricalEdge> edges,
                                   linalg::Backend backend)
    : n_(n),
      edges_(std::move(edges)),
      factor_(linalg::BackendLaplacianFactor::factor(
          graph::laplacian(conductance_graph(n, edges_)), backend)) {}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi) const {
  if (static_cast<int>(chi.size()) != n_) {
    throw std::invalid_argument("ElectricalSolver::potentials: size mismatch");
  }
  return factor_.solve(chi);
}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi,
                                         clique::Network& net,
                                         std::int64_t rounds_per_solve) const {
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "electrical_solve");
  obs::count(net.tracer(), "electrical_solves");
  net.charge_all_to_all(rounds_per_solve);
  return potentials(chi);
}

std::vector<double> ElectricalSolver::induced_flow(std::span<const double> phi) const {
  std::vector<double> f(edges_.size());
  exec::parallel_for(
      static_cast<std::int64_t>(edges_.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const ElectricalEdge& e = edges_[static_cast<std::size_t>(i)];
          f[static_cast<std::size_t>(i)] =
              (phi[static_cast<std::size_t>(e.v)] -
               phi[static_cast<std::size_t>(e.u)]) /
              e.resistance;
        }
      });
  return f;
}

std::int64_t calibrate_solve_rounds(int n, std::span<const ElectricalEdge> edges,
                                    double eps, linalg::Backend backend) {
  if (n < 2) return 0;
  clique::Network net(n);
  solver::LaplacianSolverOptions sopt;
  sopt.backend = backend;
  const solver::LaplacianSolver s(conductance_graph(n, edges), sopt, &net);
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[0] = -1.0;
  chi[static_cast<std::size_t>(n - 1)] = 1.0;
  (void)s.solve(chi, eps, nullptr, &net);
  return net.rounds();
}

}  // namespace lapclique::flow
