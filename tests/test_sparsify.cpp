// Theorem 3.3: deterministic spectral sparsification.

#include <cmath>
#include <gtest/gtest.h>

#include "cliquesim/network.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "spectral/random_sparsify.hpp"
#include "spectral/sparsify.hpp"

namespace lapclique::spectral {
namespace {

using graph::Graph;

double measured_alpha(const Graph& g, const Graph& h) {
  // alpha such that (1/alpha) L_H <= L_G <= alpha L_H: with the pencil's
  // nonzero eigenvalues in [lo, hi], alpha = max(hi, 1/lo).
  const double cond = linalg::generalized_condition_number(graph::laplacian(g),
                                                           graph::laplacian(h));
  return cond;  // conservative: condition number bounds the two-sided factor
}

TEST(Sparsify, EmptyGraphYieldsEmptySparsifier) {
  const Graph g(5);
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_EQ(r.h.num_edges(), 0);
}

TEST(Sparsify, RejectsNonPositiveWeights) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  // Graph::add_edge already rejects w <= 0; verify the sparsifier's own
  // contract on a hand-built graph path is unreachable, so just sanity-run.
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_GE(r.h.num_edges(), 0);
}

TEST(Sparsify, SparsifierIsOnSameVertexSet) {
  const Graph g = graph::random_connected_gnm(40, 200, 3);
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_EQ(r.h.num_vertices(), 40);
  EXPECT_GT(r.h.num_edges(), 0);
}

TEST(Sparsify, DeterministicAcrossRuns) {
  const Graph g = graph::random_connected_gnm(30, 120, 5);
  const SparsifyResult a = deterministic_sparsify(g);
  const SparsifyResult b = deterministic_sparsify(g);
  ASSERT_EQ(a.h.num_edges(), b.h.num_edges());
  for (int e = 0; e < a.h.num_edges(); ++e) {
    EXPECT_EQ(a.h.edge(e).u, b.h.edge(e).u);
    EXPECT_DOUBLE_EQ(a.h.edge(e).w, b.h.edge(e).w);
  }
}

class SparsifyQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparsifyQuality, ApproximationFactorBoundedOnRandomGraphs) {
  const Graph g = graph::random_connected_gnm(36, 140, GetParam());
  const SparsifyResult r = deterministic_sparsify(g);
  const double alpha = measured_alpha(g, r.h);
  EXPECT_LT(alpha, 200.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparsifyQuality, ::testing::Values(1, 2, 3, 4, 5));

TEST(Sparsify, DenseGraphGetsCompressed) {
  const Graph g = graph::complete(48);  // 1128 edges
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_LT(r.h.num_edges(), g.num_edges());
  const double alpha = measured_alpha(g, r.h);
  EXPECT_LT(alpha, 40.0);
}

TEST(Sparsify, WeightedGraphUsesWeightClasses) {
  const Graph g =
      graph::with_random_weights(graph::random_connected_gnm(24, 90, 7), 256, 11);
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_GT(r.stats.weight_classes, 1);
  const double alpha = measured_alpha(g, r.h);
  EXPECT_LT(alpha, 300.0);
}

TEST(Sparsify, BarbellKeepsTheBridgeInformation) {
  const Graph g = graph::barbell(12);
  const SparsifyResult r = deterministic_sparsify(g);
  // The sparsifier must preserve the bottleneck: connectivity across halves.
  const double alpha = measured_alpha(g, r.h);
  EXPECT_LT(alpha, 60.0);
}

TEST(Sparsify, ChargesRoundsOnNetwork) {
  const Graph g = graph::random_connected_gnm(30, 120, 9);
  clique::Network net(30);
  (void)deterministic_sparsify(g, {}, &net);
  EXPECT_GT(net.rounds(), 0);
}

TEST(Sparsify, StatsArepopulated) {
  const Graph g = graph::random_connected_gnm(32, 128, 13);
  const SparsifyResult r = deterministic_sparsify(g);
  EXPECT_GE(r.stats.levels_used, 1);
  EXPECT_GE(r.stats.clusters_total, 1);
}

TEST(RandomSparsify, KeepsExpectedFractionAndQuality) {
  const Graph g = graph::complete(40);
  RandomSparsifyOptions opt;
  opt.seed = 5;
  const Graph h = random_sparsify(g, opt);
  EXPECT_LT(h.num_edges(), g.num_edges());
  EXPECT_GT(h.num_edges(), 0);
  const double alpha = measured_alpha(g, h);
  EXPECT_LT(alpha, 30.0);
}

TEST(RandomSparsify, DeterministicForFixedSeed) {
  const Graph g = graph::random_connected_gnm(25, 120, 4);
  RandomSparsifyOptions opt;
  opt.seed = 99;
  const Graph a = random_sparsify(g, opt);
  const Graph b = random_sparsify(g, opt);
  ASSERT_EQ(a.num_edges(), b.num_edges());
}

TEST(RandomSparsify, LowDegreeEdgesAlwaysKept) {
  // p_e = 1 for bridges attached to degree-1 vertices.
  Graph g = graph::star(10);
  const Graph h = random_sparsify(g);
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

}  // namespace
}  // namespace lapclique::spectral
