// Theorem 1.2: exact maximum flow via Mądry's IPM.

#include <cmath>
#include <gtest/gtest.h>

#include "flow/dinic.hpp"
#include "flow/maxflow_ipm.hpp"
#include "graph/generators.hpp"

namespace lapclique::flow {
namespace {

using graph::Digraph;

MaxFlowIpmOptions quick_options() {
  MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;  // the exactness finisher keeps results exact
  opt.max_iterations = 400;
  return opt;
}

MaxFlowIpmReport run(const Digraph& g, int s, int t,
                     const MaxFlowIpmOptions& opt) {
  clique::Network net(std::max(g.num_vertices(), 2));
  return max_flow_clique(g, s, t, net, opt);
}

TEST(MaxFlowIpm, SingleArc) {
  Digraph g(2);
  g.add_arc(0, 1, 4);
  const auto r = run(g, 0, 1, quick_options());
  EXPECT_EQ(r.value, 4);
}

TEST(MaxFlowIpm, SeriesParallel) {
  Digraph g(4);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 3, 2);
  g.add_arc(0, 2, 3);
  g.add_arc(2, 3, 1);
  const auto r = run(g, 0, 3, quick_options());
  EXPECT_EQ(r.value, 3);
  std::vector<double> f(r.flow.begin(), r.flow.end());
  EXPECT_TRUE(graph::is_feasible_st_flow(g, f, 0, 3));
}

TEST(MaxFlowIpm, MatchesDinicAtCapacitiesOf2To32) {
  // FlowRounding once took the closing edge's unit count from a double sum
  // of the flow out of s.  Past 2^53 units that sum can get the parity
  // wrong, and the Eulerian orientation then threw on odd degrees.  The
  // options are lapclique_cli maxflow's.
  const Digraph g = graph::random_flow_network(40, 160, std::int64_t{1} << 32, 1);
  MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 1000;
  EXPECT_EQ(run(g, 0, 39, opt).value, dinic_max_flow(g, 0, 39).value);
}

class MaxFlowIpmRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowIpmRandom, MatchesDinicOracle) {
  const Digraph g = graph::random_flow_network(12, 30, 6, GetParam());
  const auto oracle = dinic_max_flow(g, 0, 11);
  const auto r = run(g, 0, 11, quick_options());
  EXPECT_EQ(r.value, oracle.value) << "seed " << GetParam();
  std::vector<double> f(r.flow.begin(), r.flow.end());
  EXPECT_TRUE(graph::is_feasible_st_flow(g, f, 0, 11)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowIpmRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MaxFlowIpm, LayeredNetworksMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Digraph g = graph::layered_flow_network(3, 3, 4, seed);
    const int t = g.num_vertices() - 1;
    const auto oracle = dinic_max_flow(g, 0, t);
    const auto r = run(g, 0, t, quick_options());
    EXPECT_EQ(r.value, oracle.value) << seed;
  }
}

TEST(MaxFlowIpm, UnitCapacities) {
  const Digraph g = graph::random_flow_network(14, 40, 1, 9);
  const auto oracle = dinic_max_flow(g, 0, 13);
  const auto r = run(g, 0, 13, quick_options());
  EXPECT_EQ(r.value, oracle.value);
}

TEST(MaxFlowIpm, LargeCapacities) {
  const Digraph g = graph::random_flow_network(10, 24, 1000, 5);
  const auto oracle = dinic_max_flow(g, 0, 9);
  const auto r = run(g, 0, 9, quick_options());
  EXPECT_EQ(r.value, oracle.value);
}

TEST(MaxFlowIpm, KnownValueHintRoutesCloseToTarget) {
  const Digraph g = graph::random_flow_network(12, 30, 4, 7);
  const auto oracle = dinic_max_flow(g, 0, 11);
  MaxFlowIpmOptions opt = quick_options();
  opt.known_value = oracle.value;
  opt.iteration_scale = 0.3;
  const auto r = run(g, 0, 11, opt);
  EXPECT_EQ(r.value, oracle.value);
  EXPECT_GT(r.routed_fraction, 0.2);
}

TEST(MaxFlowIpm, ReportIsPopulated) {
  const Digraph g = graph::random_flow_network(10, 24, 3, 2);
  const auto r = run(g, 0, 9, quick_options());
  EXPECT_GT(r.run.rounds, 0);
  EXPECT_GT(r.rounds_per_solve, 0);
  EXPECT_GT(r.laplacian_solves, 0);
  EXPECT_GT(r.ipm_iterations, 0);
  EXPECT_GT(r.rounding_phases, 0);
}

TEST(MaxFlowIpm, RejectsBadEndpoints) {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  clique::Network net(3);
  EXPECT_THROW((void)max_flow_clique(g, 0, 0, net), std::invalid_argument);
  EXPECT_THROW((void)max_flow_clique(g, 0, 7, net), std::invalid_argument);
}

TEST(MaxFlowIpm, NoPathGivesZero) {
  Digraph g(4);
  g.add_arc(1, 0, 3);  // only an arc INTO s
  g.add_arc(3, 2, 3);  // only an arc OUT of t's side
  const auto r = run(g, 0, 3, quick_options());
  EXPECT_EQ(r.value, 0);
}

TEST(MaxFlowIpm, CollapsedPivotDegradesToDinic) {
  // One capacity of about 2^27 among capacities of 1-3: at the default
  // budget the iterate spreads the resistances until, near iteration 2,600,
  // a pivot of an electrical factor collapses.  That is divergence, like a
  // non-finite iterate: the run answers Dinic's flow and says why.
  Digraph g(4);
  g.add_arc(0, 1, 3);
  g.add_arc(0, 2, 2, 1);
  g.add_arc(1, 3, 2);
  g.add_arc(2, 3, 3);
  g.add_arc(1, 2, 150000001);
  const auto r = run(g, 0, 3, MaxFlowIpmOptions{});
  EXPECT_TRUE(r.run.used_fallback);
  EXPECT_EQ(r.run.fallback_reason, "pivot collapsed in an electrical factorization");
  EXPECT_EQ(r.value, 5);
  EXPECT_EQ(r.flow, dinic_max_flow(g, 0, 3).flow);
}

TEST(MaxFlowIpm, DeterministicAcrossRuns) {
  const Digraph g = graph::random_flow_network(10, 26, 4, 11);
  const auto a = run(g, 0, 9, quick_options());
  const auto b = run(g, 0, 9, quick_options());
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.run.rounds, b.run.rounds);
  EXPECT_EQ(a.flow, b.flow);
}

}  // namespace
}  // namespace lapclique::flow
