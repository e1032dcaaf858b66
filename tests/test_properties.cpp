// Cross-module property tests: the paper's definitions checked directly on
// probe distributions rather than through derived quantities.
#include <gtest/gtest.h>

#include <cmath>

#include "cliquesim/network.hpp"
#include "euler/euler_orient.hpp"
#include "euler/flow_round.hpp"
#include "flow/dinic.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "graph/rng.hpp"
#include "linalg/backend.hpp"
#include "solver/laplacian_solver.hpp"
#include "spectral/random_sparsify.hpp"
#include "spectral/sparsify.hpp"

namespace lapclique {
namespace {

using graph::Graph;
using linalg::Vec;

Vec random_probe(int n, graph::SplitMix64& rng) {
  Vec x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = rng.next_double() - 0.5;
  return x;
}

// Definition 2.1, checked verbatim on probe vectors: there must exist one
// alpha (we use a generous cap) with (1/a) x'L_H x <= x'L_G x <= a x'L_H x.
class SparsifierPsdOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparsifierPsdOrder, HoldsOnProbeVectors) {
  const Graph g = graph::random_connected_gnm(32, 160, GetParam());
  const auto sp = spectral::deterministic_sparsify(g);
  const auto lg = graph::laplacian(g);
  const auto lh = graph::laplacian(sp.h);
  graph::SplitMix64 rng(GetParam() * 77 + 1);
  const double alpha_cap = 200.0;
  for (int probe = 0; probe < 32; ++probe) {
    Vec x = random_probe(32, rng);
    const double qg = lg.quadratic_form(x);
    const double qh = lh.quadratic_form(x);
    if (qh < 1e-12 && qg < 1e-12) continue;
    EXPECT_LE(qg, alpha_cap * qh + 1e-9) << "probe " << probe;
    EXPECT_LE(qh, alpha_cap * qg + 1e-9) << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparsifierPsdOrder, ::testing::Values(1, 2, 3, 4));

TEST(RandomSparsifierPsdOrder, HoldsOnProbeVectors) {
  const Graph g = graph::complete(32);
  const Graph h = spectral::random_sparsify(g);
  const auto lg = graph::laplacian(g);
  const auto lh = graph::laplacian(h);
  graph::SplitMix64 rng(9);
  for (int probe = 0; probe < 32; ++probe) {
    Vec x = random_probe(32, rng);
    const double qg = lg.quadratic_form(x);
    const double qh = lh.quadratic_form(x);
    EXPECT_LE(qg, 30.0 * qh + 1e-9);
    EXPECT_LE(qh, 30.0 * qg + 1e-9);
  }
}

// Theorem 2.2 property 1 through the whole solver: for random right-hand
// sides (not just s-t pairs), the solution's quadratic form b' x must land
// within (1 +- O(eps)) of b' L^+ b.
class SolverRandomRhs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRandomRhs, OperatorSandwich) {
  const Graph g = graph::random_connected_gnm(28, 96, GetParam());
  const solver::LaplacianSolver s(g);
  const auto exact = linalg::BackendLaplacianFactor::factor(graph::laplacian(g));
  graph::SplitMix64 rng(GetParam() + 1000);
  for (int probe = 0; probe < 8; ++probe) {
    Vec b = random_probe(28, rng);
    linalg::project_out_ones(b);
    const Vec x = s.solve(b, 1e-6);
    const double measured = linalg::dot(b, x);
    const double reference = linalg::dot(b, exact.solve(b));
    EXPECT_NEAR(measured, reference, 1e-4 * std::abs(reference) + 1e-10)
        << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomRhs, ::testing::Values(1, 2, 3));

// Euler orientation with one node sitting on many cycles simultaneously
// (the congestion case the paper handles via [Len13] in step 2b).
TEST(EulerHotspot, HubOnManyCyclesOrientsCorrectly) {
  // 30 triangles all sharing vertex 0: vertex 0 has degree 60 and lies on
  // 30 distinct cycles.
  Graph g(61);
  for (int k = 0; k < 30; ++k) {
    const int a = 1 + 2 * k;
    const int b = 2 + 2 * k;
    g.add_edge(0, a);
    g.add_edge(a, b);
    g.add_edge(b, 0);
  }
  clique::Network net(61);
  const auto r = euler::eulerian_orientation(g, net);
  EXPECT_TRUE(euler::is_eulerian_orientation(g, r.orientation));
  // Audit: the hub's load is covered by the charged rounds.
  for (const clique::OpRecord& op : net.op_log()) {
    EXPECT_LE(op.max_node_load, op.rounds * 61);
  }
}

// Flow-rounding cost monotonicity over random costed circulations.
class RoundingCostSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundingCostSweep, CostNeverIncreasesValueNeverDrops) {
  const graph::Digraph g = graph::random_flow_network(14, 36, 6, GetParam());
  // Random costs on a copy of the network with doubled capacities: the max
  // flow value is then even, so halving it keeps the *total* value integral
  // (Theorem 4.1's precondition for the cost clause) while the edge values
  // become fractional.
  graph::Digraph gc(g.num_vertices());
  graph::SplitMix64 rng(GetParam() * 3 + 5);
  for (const graph::Arc& a : g.arcs()) {
    gc.add_arc(a.from, a.to, 2 * a.cap,
               static_cast<std::int64_t>(rng.next_below(20)) + 1);
  }
  const auto mf = flow::dinic_max_flow(gc, 0, 13);
  ASSERT_EQ(mf.value % 2, 0);
  graph::Flow f(mf.flow.begin(), mf.flow.end());
  for (double& v : f) v *= 0.5;
  const double val0 = graph::flow_value(gc, f, 0);
  const double cost0 = graph::flow_cost(gc, f);
  clique::Network net(14);
  euler::FlowRoundingOptions opt;
  opt.delta = 1.0 / 2;
  opt.use_costs = true;
  const auto r = euler::round_flow(gc, f, 0, 13, net, opt);
  EXPECT_GE(graph::flow_value(gc, r.flow, 0), val0 - 1e-9) << GetParam();
  EXPECT_LE(graph::flow_cost(gc, r.flow), cost0 + 1e-9) << GetParam();
  EXPECT_TRUE(graph::is_feasible_st_flow(gc, r.flow, 0, 13)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingCostSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(PlantedPartition, ShapeAndDeterminism) {
  const Graph a = graph::planted_partition(3, 10, 0.6, 0.05, 11);
  const Graph b = graph::planted_partition(3, 10, 0.6, 0.05, 11);
  EXPECT_EQ(a.num_vertices(), 30);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_THROW(graph::planted_partition(0, 5, 0.5, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(graph::planted_partition(2, 5, 1.5, 0.1, 1), std::invalid_argument);
}

TEST(PlantedPartition, IntraDensityExceedsInter) {
  const Graph g = graph::planted_partition(2, 20, 0.5, 0.05, 13);
  int intra = 0;
  int inter = 0;
  for (const graph::Edge& e : g.edges()) {
    (e.u / 20 == e.v / 20 ? intra : inter) += 1;
  }
  EXPECT_GT(intra, 4 * inter);
}

}  // namespace
}  // namespace lapclique
