#include "solver/resistance.hpp"

#include <stdexcept>
#include <utility>

#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::solver {

using linalg::Vec;

namespace {

Vec pair_demand(int n, int u, int v) {
  if (u < 0 || v < 0 || u >= n || v >= n || u == v) {
    throw std::invalid_argument("effective_resistance: bad vertex pair");
  }
  Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(u)] = 1.0;
  chi[static_cast<std::size_t>(v)] = -1.0;
  return chi;
}

}  // namespace

double effective_resistance_exact(const graph::Graph& g, int u, int v) {
  const auto l = graph::laplacian(g);
  // kAuto: small oracles stay on the historical dense bits, large ones get
  // the sparse factor (exactness does not depend on the backend).
  const auto f = linalg::BackendLaplacianFactor::factor(l);
  const Vec chi = pair_demand(g.num_vertices(), u, v);
  const Vec x = f.solve(chi);
  return linalg::dot(chi, x);
}

ResistanceReport effective_resistance_clique(const graph::Graph& g, int u, int v,
                                             double eps,
                                             const LaplacianSolverOptions& opt,
                                             clique::Network& net) {
  const Vec chi = pair_demand(g.num_vertices(), u, v);
  CliqueSolveReport rep = solve_laplacian_clique(g, chi, eps, opt, net);
  ResistanceReport out;
  out.resistance = linalg::dot(chi, rep.x);
  out.run = std::move(rep.run);
  out.run.rounds += 1;  // + one broadcast of the two potentials
  return out;
}

}  // namespace lapclique::solver
