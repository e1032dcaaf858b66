#include <gtest/gtest.h>

#include <cmath>

#include "cliquesim/network.hpp"
#include "flow/distributed_sssp.hpp"
#include "graph/generators.hpp"

namespace lapclique::flow {
namespace {

using graph::Digraph;

TEST(Sssp, ChainDistances) {
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  g.add_arc(2, 3, 1);
  clique::Network net(4);
  const std::vector<double> len{2.0, 3.0, 4.0};
  const std::vector<char> usable(3, 1);
  const SsspResult r = multi_source_sssp(g, {0}, len, usable, net);
  EXPECT_DOUBLE_EQ(r.dist[3], 9.0);
  EXPECT_EQ(r.parent_arc[3], 2);
}

TEST(Sssp, UnusableArcsIgnored) {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  clique::Network net(3);
  const std::vector<double> len{1.0, 1.0};
  const std::vector<char> usable{1, 0};
  const SsspResult r = multi_source_sssp(g, {0}, len, usable, net);
  EXPECT_TRUE(std::isinf(r.dist[2]));
}

TEST(Sssp, NegativeLengthsWithoutCycles) {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  g.add_arc(0, 2, 1);
  clique::Network net(3);
  const std::vector<double> len{5.0, -3.0, 4.0};
  const std::vector<char> usable(3, 1);
  const SsspResult r = multi_source_sssp(g, {0}, len, usable, net);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);  // 5 - 3 beats direct 4
}

TEST(Sssp, NegativeCycleThrows) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 0, 1);
  clique::Network net(2);
  const std::vector<double> len{-1.0, -1.0};
  const std::vector<char> usable(2, 1);
  EXPECT_THROW((void)multi_source_sssp(g, {0}, len, usable, net),
               std::runtime_error);
}

TEST(Sssp, CkklChargeIsNPow0158) {
  const Digraph g = graph::random_flow_network(32, 80, 3, 1);
  clique::Network net(32);
  const std::vector<double> len(80, 1.0);
  const std::vector<char> usable(80, 1);
  const SsspResult r = multi_source_sssp(g, {0}, len, usable, net);
  EXPECT_EQ(r.rounds_charged,
            static_cast<std::int64_t>(std::ceil(std::pow(32.0, 0.158))));
}

TEST(MultiSourceSssp, NearestSourceWins) {
  Digraph g(5);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  g.add_arc(1, 3, 1);
  g.add_arc(3, 4, 1);
  clique::Network net(5);
  const std::vector<double> len{10.0, 10.0, 1.0, 1.0};
  const std::vector<char> usable(4, 1);
  const SsspResult r = multi_source_sssp(g, {0, 1}, len, usable, net);
  EXPECT_DOUBLE_EQ(r.dist[3], 1.0);  // from source 1
  EXPECT_DOUBLE_EQ(r.dist[4], 2.0);
}

TEST(ResidualAugmentingPath, FindsForwardPath) {
  Digraph g(3);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 2, 2);
  clique::Network net(3);
  const std::vector<std::int64_t> flow{0, 0};
  const auto path = residual_augmenting_path(g, flow, 0, 2, net);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
  EXPECT_TRUE((*path)[0].second);
}

TEST(ResidualAugmentingPath, UsesBackwardArcs) {
  // Classic: the only augmenting path must cancel flow on (1,2).
  Digraph g(4);
  const int a01 = g.add_arc(0, 1, 1);
  const int a12 = g.add_arc(1, 2, 1);
  const int a23 = g.add_arc(2, 3, 1);
  const int a02 = g.add_arc(0, 2, 1);
  const int a13 = g.add_arc(1, 3, 1);
  (void)a01;
  (void)a23;
  std::vector<std::int64_t> flow(5, 0);
  flow[static_cast<std::size_t>(a01)] = 1;
  flow[static_cast<std::size_t>(a12)] = 1;
  flow[static_cast<std::size_t>(a23)] = 1;
  (void)a02;
  (void)a13;
  clique::Network net(4);
  const auto path = residual_augmenting_path(g, flow, 0, 3, net);
  ASSERT_TRUE(path.has_value());
  bool used_backward = false;
  for (const auto& [a, fwd] : *path) {
    if (!fwd) used_backward = true;
  }
  EXPECT_TRUE(used_backward);
}

TEST(ResidualAugmentingPath, NoneWhenSaturated) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  clique::Network net(2);
  const std::vector<std::int64_t> flow{1};
  EXPECT_FALSE(residual_augmenting_path(g, flow, 0, 1, net).has_value());
}

}  // namespace
}  // namespace lapclique::flow
