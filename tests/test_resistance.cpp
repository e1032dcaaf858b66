// Effective resistances (the Laplacian-paradigm utility layer).
#include <gtest/gtest.h>

#include <cmath>

#include "core/api.hpp"
#include "graph/generators.hpp"
#include "solver/resistance.hpp"

namespace lapclique::solver {
namespace {

using graph::Graph;

TEST(Resistance, SeriesPathAddsUp) {
  // Unit path of length k: R(0, k) = k.
  const Graph g = graph::path(6);
  EXPECT_NEAR(effective_resistance_exact(g, 0, 5), 5.0, 1e-9);
  EXPECT_NEAR(effective_resistance_exact(g, 1, 3), 2.0, 1e-9);
}

TEST(Resistance, ParallelEdgesCombine) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  // Conductances add: 1 + 1 + 2 = 4 -> R = 1/4.
  EXPECT_NEAR(effective_resistance_exact(g, 0, 1), 0.25, 1e-9);
}

TEST(Resistance, CompleteGraphFormula) {
  // K_n with unit weights: R(u,v) = 2/n.
  for (int n : {4, 8, 16}) {
    const Graph g = graph::complete(n);
    EXPECT_NEAR(effective_resistance_exact(g, 0, n - 1), 2.0 / n, 1e-9) << n;
  }
}

TEST(Resistance, CycleIsParallelPaths) {
  // Cycle of length n, adjacent vertices: two parallel paths of lengths 1
  // and n-1: R = (n-1)/n.
  const Graph g = graph::cycle(8);
  EXPECT_NEAR(effective_resistance_exact(g, 0, 1), 7.0 / 8.0, 1e-9);
}

TEST(Resistance, WeightScalingInverts) {
  Graph g = graph::cycle(6);
  const double r1 = effective_resistance_exact(g, 0, 3);
  g.scale_weights(4.0);
  EXPECT_NEAR(effective_resistance_exact(g, 0, 3), r1 / 4.0, 1e-9);
}

TEST(Resistance, RayleighMonotonicity) {
  // Adding edges can only decrease effective resistance.
  Graph g = graph::path(8);
  const double before = effective_resistance_exact(g, 0, 7);
  g.add_edge(0, 4);
  const double after = effective_resistance_exact(g, 0, 7);
  EXPECT_LE(after, before + 1e-12);
}

TEST(Resistance, CliqueVariantMatchesExact) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = graph::random_connected_gnm(24, 72, seed);
    const double exact = effective_resistance_exact(g, 0, 23);
    const ResistanceReport rep = lapclique::effective_resistance(g, 0, 23, 1e-8);
    EXPECT_NEAR(rep.resistance, exact, 1e-5 * std::max(exact, 1.0)) << seed;
    EXPECT_GT(rep.run.rounds, 0) << seed;
  }
}

TEST(Resistance, RejectsBadPairs) {
  const Graph g = graph::cycle(4);
  EXPECT_THROW((void)effective_resistance_exact(g, 1, 1), std::invalid_argument);
  EXPECT_THROW((void)effective_resistance_exact(g, 0, 9), std::invalid_argument);
}

TEST(Resistance, TriangleInequalityOfSqrt) {
  // R_eff is a squared Euclidean metric: R(u,w) <= R(u,v) + R(v,w).
  const Graph g = graph::random_connected_gnm(12, 30, 5);
  const double ruv = effective_resistance_exact(g, 0, 5);
  const double rvw = effective_resistance_exact(g, 5, 9);
  const double ruw = effective_resistance_exact(g, 0, 9);
  EXPECT_LE(ruw, ruv + rvw + 1e-9);
}

TEST(Resistance, SumOverSpanningTreeEdgesMatchesFosters) {
  // Foster's theorem: sum over edges of w_e * R_eff(u_e, v_e) = n - 1.
  const Graph g = graph::random_connected_gnm(10, 24, 7);
  double total = 0;
  for (const graph::Edge& e : g.edges()) {
    total += e.w * effective_resistance_exact(g, e.u, e.v);
  }
  EXPECT_NEAR(total, 9.0, 1e-6);
}

}  // namespace
}  // namespace lapclique::solver
