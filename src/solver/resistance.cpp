#include "solver/resistance.hpp"

#include <stdexcept>
#include <utility>

#include "graph/connectivity.hpp"
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

BatchResistanceReport query_pairs(const graph::Graph& g,
                                  std::span<const PairQuery> pairs, double eps,
                                  const LaplacianSolverOptions& opt,
                                  clique::Network& net) {
  const int n = g.num_vertices();
  if (n < 2) throw std::invalid_argument("query_pairs: n >= 2 required");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument(
        "query_pairs: graph must be connected (solve components separately)");
  }
  std::vector<Vec> chis;
  chis.reserve(pairs.size());
  for (const PairQuery& p : pairs) chis.push_back(pair_demand(n, p.u, p.v));

  CliqueLaplacianSolver solver(g, opt, net);
  BatchResistanceReport rep;
  const std::vector<Vec> xs = solver.solve_block(chis, eps, &rep.stats);
  rep.resistances.reserve(pairs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    rep.resistances.push_back(linalg::dot(chis[i], xs[i]));
  }
  rep.run.capture(net);
  // + one broadcast of the two potentials per pair, as the scalar query
  // charges.
  rep.run.rounds += static_cast<std::int64_t>(pairs.size());
  const linalg::FactorStats& fs = solver.inner().factor_stats();
  rep.run.numerics = linalg::to_string(fs.chosen);
  rep.run.factor_fill = fs.fill_nnz;
  return rep;
}

}  // namespace lapclique::solver
