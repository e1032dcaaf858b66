// Integration tests through the public facade.

#include <cmath>
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "flow/baselines.hpp"
#include "flow/dinic.hpp"
#include "flow/ssp_mincost.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/jacobi_eigen.hpp"

namespace lapclique {
namespace {

TEST(Api, SolveLaplacianEndToEnd) {
  const Graph g = graph::random_connected_gnm(20, 60, 1);
  std::vector<double> b(20, 0.0);
  b[0] = 1.0;
  b[19] = -1.0;
  const auto rep = solve_laplacian(g, b, 1e-6);
  EXPECT_GT(rep.run.rounds, 0);
  const auto l = graph::laplacian(g);
  const auto exact = linalg::BackendLaplacianFactor::factor(l);
  const auto xstar = exact.solve(b);
  auto diff = linalg::sub(rep.x, xstar);
  EXPECT_LT(graph::laplacian_norm(l, diff),
            1e-5 * std::max(graph::laplacian_norm(l, xstar), 1e-12));
}

TEST(Api, SparsifyEndToEnd) {
  const Graph g = graph::complete(30);
  const auto rep = sparsify(g);
  EXPECT_LT(rep.h.num_edges(), g.num_edges());
  EXPECT_GT(rep.run.rounds, 0);
  const double cond = linalg::generalized_condition_number(
      graph::laplacian(g), graph::laplacian(rep.h));
  EXPECT_LT(cond, 50.0);
}

TEST(Api, EulerianOrientationEndToEnd) {
  const Graph g = graph::doubled(graph::grid(4, 4));
  const auto rep = eulerian_orientation(g);
  EXPECT_TRUE(euler::is_eulerian_orientation(g, rep.orientation));
  EXPECT_GT(rep.run.rounds, 0);
}

TEST(Api, RoundFlowEndToEnd) {
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 3, 1);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  euler::FlowRoundingOptions opt;
  opt.delta = 0.5;
  const auto rep = round_flow(g, {0.5, 0.5, 0.5, 0.5}, 0, 3, opt);
  EXPECT_GE(graph::flow_value(g, rep.flow, 0), 1.0 - 1e-9);
}

TEST(Api, MaxFlowEndToEnd) {
  const Digraph g = graph::random_flow_network(12, 30, 5, 21);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  const auto rep = max_flow(g, 0, 11, opt);
  EXPECT_EQ(rep.value, flow::dinic_max_flow(g, 0, 11).value);
}

TEST(Api, MinCostFlowEndToEnd) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 6, 22);
  const auto sigma = graph::feasible_unit_demands(g, 3, 23);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  const auto rep = min_cost_flow(g, sigma, opt);
  const auto oracle = flow::ssp_min_cost_flow(g, sigma);
  ASSERT_EQ(rep.feasible, oracle.feasible);
  if (oracle.feasible) {
    EXPECT_EQ(rep.cost, oracle.cost);
  }
}

// End-to-end crossover story from §1.1: for small |f*| Ford-Fulkerson beats
// the trivial baseline; the IPM's round count lives between the theory
// bounds.  (Shape assertions, not absolute numbers.)
TEST(Api, BaselineCrossoversBehaveAsInSection11) {
  const Digraph g = graph::random_flow_network(24, 60, 1, 31);  // small |f*|
  clique::Network net_ff(24);
  const auto ff = flow::ford_fulkerson_max_flow(g, 0, 23, net_ff);
  clique::Network net_tr(24);
  const auto tr = flow::trivial_max_flow(g, 0, 23, net_tr);
  EXPECT_EQ(ff.value, tr.value);
  // Unit capacities keep |f*| tiny, so FF should be competitive here.
  EXPECT_LT(ff.rounds, 40 * tr.rounds);
}

}  // namespace
}  // namespace lapclique
