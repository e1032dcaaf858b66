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

void charge_potential_broadcast(clique::Network& net) {
  net.set_phase("resistance/broadcast");
  net.charge(1);
}

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
  charge_potential_broadcast(net);
  ResistanceReport out;
  out.resistance = linalg::dot(chi, rep.x);
  out.run = std::move(rep.run);  // keeps the solve's numerics and fill
  out.run.capture(net);           // counts now include the broadcast
  return out;
}

}  // namespace lapclique::solver
