// Theorem 1.1: the congested-clique Laplacian solver with round accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/api.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "solver/clique_laplacian.hpp"

namespace lapclique::solver {
namespace {

using graph::Graph;
using linalg::Vec;

Vec demand_pair(int n, int a, int b) {
  Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(a)] = 1.0;
  chi[static_cast<std::size_t>(b)] = -1.0;
  return chi;
}

TEST(CliqueLaplacian, SolvesAndCharges) {
  const Graph g = graph::random_connected_gnm(24, 80, 2);
  const Vec b = demand_pair(24, 0, 23);
  const CliqueSolveReport rep = lapclique::solve_laplacian(g, b, 1e-6);
  EXPECT_GT(rep.run.rounds, 0);
  EXPECT_GT(rep.run.words, 0);
  // Verify the answer.
  const auto l = graph::laplacian(g);
  const auto exact = linalg::BackendLaplacianFactor::factor(l);
  const Vec xstar = exact.solve(b);
  Vec diff = linalg::sub(rep.x, xstar);
  EXPECT_LT(graph::laplacian_norm(l, diff),
            1e-5 * std::max(graph::laplacian_norm(l, xstar), 1e-9));
}

TEST(CliqueLaplacian, PhaseLedgerCoversPipeline) {
  const Graph g = graph::random_connected_gnm(24, 80, 3);
  const Vec b = demand_pair(24, 1, 11);
  const CliqueSolveReport rep = lapclique::solve_laplacian(g, b, 1e-6);
  const auto& phases = rep.run.phases.rounds_by_phase;
  EXPECT_TRUE(phases.count("solver/sparsify"));
  EXPECT_TRUE(phases.count("solver/gather_sparsifier"));
  EXPECT_TRUE(phases.count("solver/range_estimation"));
  EXPECT_TRUE(phases.count("solver/chebyshev"));
  std::int64_t total = 0;
  for (const auto& [name, r] : phases) total += r;
  EXPECT_EQ(total, rep.run.rounds);
}

TEST(CliqueLaplacian, RoundsScaleWithLogEps) {
  // Theorem 1.1: rounds ~ n^{o(1)} * log(1/eps).  Chebyshev rounds should
  // grow roughly linearly in log(1/eps) while sparsify rounds stay fixed.
  const Graph g = graph::random_connected_gnm(30, 100, 4);
  clique::Network net(30);
  const CliqueLaplacianSolver solver(g, {}, net);
  const Vec b = demand_pair(30, 0, 29);

  net.reset_accounting();
  (void)solver.solve(b, 1e-2);
  const std::int64_t r2 = net.rounds();
  net.reset_accounting();
  (void)solver.solve(b, 1e-8);
  const std::int64_t r8 = net.rounds();
  EXPECT_GT(r8, r2);
  EXPECT_LT(r8, 8 * r2);  // roughly 4x more digits -> not super-linear blowup
}

TEST(CliqueLaplacian, RejectsDisconnectedGraphs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const Vec b = demand_pair(4, 0, 3);
  EXPECT_THROW((void)lapclique::solve_laplacian(g, b, 1e-4), std::invalid_argument);
}

TEST(CliqueLaplacian, RejectsTinyGraphs) {
  const Graph g(1);
  const Vec b(1, 0.0);
  EXPECT_THROW((void)lapclique::solve_laplacian(g, b, 1e-4), std::invalid_argument);
}

TEST(CliqueLaplacian, ReusableSolverAccumulatesRounds) {
  const Graph g = graph::random_connected_gnm(20, 60, 6);
  clique::Network net(20);
  const CliqueLaplacianSolver solver(g, {}, net);
  const std::int64_t setup_rounds = net.rounds();
  EXPECT_GT(setup_rounds, 0);
  (void)solver.solve(demand_pair(20, 0, 10), 1e-4);
  const std::int64_t after_one = net.rounds();
  EXPECT_GT(after_one, setup_rounds);
  (void)solver.solve(demand_pair(20, 3, 17), 1e-4);
  EXPECT_GT(net.rounds(), after_one);
}

TEST(CliqueLaplacian, SubpolynomialScalingInN) {
  // Measured per-solve Chebyshev rounds should grow far slower than n.
  std::vector<std::int64_t> cheb_rounds;
  for (int n : {16, 64}) {
    const Graph g = graph::random_connected_gnm(n, 4 * n, 11);
    clique::Network net(n);
    const CliqueLaplacianSolver solver(g, {}, net);
    net.reset_accounting();
    (void)solver.solve(demand_pair(n, 0, n - 1), 1e-6);
    cheb_rounds.push_back(net.ledger().rounds_by_phase.at("solver/chebyshev"));
  }
  // n grew 4x; Chebyshev rounds must grow much less than 4x.
  EXPECT_LT(static_cast<double>(cheb_rounds[1]),
            3.0 * static_cast<double>(cheb_rounds[0]));
}

}  // namespace
}  // namespace lapclique::solver
