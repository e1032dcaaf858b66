// Theorem 1.3: exact unit-capacity min-cost flow via the CMSV IPM.

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

#include "flow/mincost_ipm.hpp"
#include "flow/ssp_mincost.hpp"
#include "graph/generators.hpp"

namespace lapclique::flow {
namespace {

using graph::Digraph;

MinCostIpmOptions quick_options() {
  MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 60;
  return opt;
}

MinCostIpmReport run(const Digraph& g, const std::vector<std::int64_t>& sigma,
                     const MinCostIpmOptions& opt) {
  clique::Network net(std::max(g.num_vertices(), 2));
  return min_cost_flow_clique(g, sigma, net, opt);
}

TEST(MinCostIpm, SimpleChain) {
  Digraph g(3);
  g.add_arc(0, 1, 1, 2);
  g.add_arc(1, 2, 1, 3);
  const std::vector<std::int64_t> sigma{-1, 0, 1};
  const auto r = run(g, sigma, quick_options());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 5);
}

TEST(MinCostIpm, PicksCheaperOfTwoPaths) {
  Digraph g(4);
  g.add_arc(0, 1, 1, 10);
  g.add_arc(1, 3, 1, 10);
  g.add_arc(0, 2, 1, 1);
  g.add_arc(2, 3, 1, 1);
  const std::vector<std::int64_t> sigma{-1, 0, 0, 1};
  const auto r = run(g, sigma, quick_options());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 2);
}

class MinCostIpmRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCostIpmRandom, MatchesSspOracle) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 7, GetParam());
  const auto sigma = graph::feasible_unit_demands(g, 3, GetParam() + 50);
  const auto oracle = ssp_min_cost_flow(g, sigma);
  ASSERT_TRUE(oracle.feasible) << GetParam();
  const auto r = run(g, std::vector<std::int64_t>(sigma.begin(), sigma.end()),
                     quick_options());
  ASSERT_TRUE(r.feasible) << GetParam();
  EXPECT_EQ(r.cost, oracle.cost) << "seed " << GetParam();
  std::vector<double> f(r.flow.begin(), r.flow.end());
  EXPECT_TRUE(graph::satisfies_demands(g, f, sigma)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCostIpmRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(MinCostIpm, ZeroDemandsGiveZeroCost) {
  const Digraph g = graph::random_unit_cost_digraph(8, 20, 5, 3);
  const std::vector<std::int64_t> sigma(8, 0);
  const auto r = run(g, sigma, quick_options());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 0);
}

TEST(MinCostIpm, InfeasibleDemandsReported) {
  Digraph g(3);
  g.add_arc(0, 1, 1, 1);
  // Vertex 2 is unreachable.
  const std::vector<std::int64_t> sigma{-1, 0, 1};
  const auto r = run(g, sigma, quick_options());
  EXPECT_FALSE(r.feasible);
}

TEST(MinCostIpm, RejectsNonUnitCapacities) {
  Digraph g(2);
  g.add_arc(0, 1, 3, 1);
  clique::Network net(2);
  const std::vector<std::int64_t> sigma{-1, 1};
  EXPECT_THROW((void)min_cost_flow_clique(g, sigma, net), std::invalid_argument);
}

TEST(MinCostIpm, RejectsUnbalancedDemands) {
  Digraph g(2);
  g.add_arc(0, 1, 1, 1);
  clique::Network net(2);
  const std::vector<std::int64_t> sigma{-1, 2};
  EXPECT_THROW((void)min_cost_flow_clique(g, sigma, net), std::invalid_argument);
}

TEST(MinCostIpm, RejectsDemandsWhoseSumOverflows) {
  Digraph g(2);
  g.add_arc(0, 1, 1, 1);
  clique::Network net(2);
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> sigma{big, big};
  EXPECT_THROW((void)min_cost_flow_clique(g, sigma, net), std::invalid_argument);
}

// With unit capacities vertex 0 sends at most out_degree(0) = 1 unit, so
// sigma = {-3, 3} is infeasible: the run answers without building the lift
// (one auxiliary arc per unit of excess) and charges one announcement round.
TEST(MinCostIpm, DemandBeyondDegreeSkipsTheLift) {
  Digraph g(2);
  g.add_arc(0, 1, 1, 1);
  const auto r = run(g, {-3, 3}, quick_options());
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.flow, std::vector<std::int64_t>{0});
  EXPECT_EQ(r.laplacian_solves, 0);
  EXPECT_EQ(r.run.rounds, 1);
}

TEST(MinCostIpm, ReportIsPopulated) {
  const Digraph g = graph::random_unit_cost_digraph(10, 36, 6, 7);
  const auto sigma = graph::feasible_unit_demands(g, 2, 60);
  const auto r = run(g, std::vector<std::int64_t>(sigma.begin(), sigma.end()),
                     quick_options());
  EXPECT_GT(r.run.rounds, 0);
  EXPECT_GT(r.rounds_per_solve, 0);
  EXPECT_GT(r.laplacian_solves, 0);
}

TEST(MinCostIpm, LargeCostsStillExact) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 500, 9);
  const auto sigma = graph::feasible_unit_demands(g, 2, 70);
  const auto oracle = ssp_min_cost_flow(g, sigma);
  ASSERT_TRUE(oracle.feasible);
  const auto r = run(g, std::vector<std::int64_t>(sigma.begin(), sigma.end()),
                     quick_options());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, oracle.cost);
}

TEST(MinCostIpm, DeterministicAcrossRuns) {
  const Digraph g = graph::random_unit_cost_digraph(9, 30, 5, 13);
  const auto sigma = graph::feasible_unit_demands(g, 2, 80);
  const auto a = run(g, std::vector<std::int64_t>(sigma.begin(), sigma.end()),
                     quick_options());
  const auto b = run(g, std::vector<std::int64_t>(sigma.begin(), sigma.end()),
                     quick_options());
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.run.rounds, b.run.rounds);
}

// On these two instances one slack overflows late in the run and drives a
// resistance to +inf.  That counts as divergence: the run takes the SSP
// fallback instead of letting the electrical solver's std::invalid_argument
// ("Graph: weight must be positive") escape.
TEST(MinCostIpm, InfiniteResistanceTakesSspFallback) {
  struct Case {
    std::uint64_t graph_seed;
    std::uint64_t demand_seed;
    std::int64_t ssp_cost;
  };
  for (const Case& c : {Case{1511180959984962352ULL, 17167659548769537544ULL, 34},
                        Case{4805449333916039509ULL, 11637439991135668114ULL, 49}}) {
    SCOPED_TRACE(c.graph_seed);
    const Digraph g = graph::random_unit_cost_digraph(32, 96, 8, c.graph_seed);
    const auto sigma = graph::feasible_unit_demands(g, 8, c.demand_seed);
    ASSERT_EQ(ssp_min_cost_flow(g, sigma).cost, c.ssp_cost);
    MinCostIpmOptions opt;
    opt.iteration_scale = 0.02;
    opt.max_iterations = 250;
    MinCostIpmReport r;
    ASSERT_NO_THROW(r = run(g, sigma, opt));
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.cost, c.ssp_cost);
    EXPECT_TRUE(r.run.used_fallback);
  }
}

}  // namespace
}  // namespace lapclique::flow
