#include <gtest/gtest.h>

#include "flow/dinic.hpp"
#include "graph/generators.hpp"

namespace lapclique::flow {
namespace {

using graph::Digraph;

TEST(Dinic, SingleArc) {
  Digraph g(2);
  g.add_arc(0, 1, 5);
  const auto r = dinic_max_flow(g, 0, 1);
  EXPECT_EQ(r.value, 5);
  EXPECT_EQ(r.flow[0], 5);
}

TEST(Dinic, SeriesBottleneck) {
  Digraph g(3);
  g.add_arc(0, 1, 5);
  g.add_arc(1, 2, 3);
  EXPECT_EQ(dinic_max_flow(g, 0, 2).value, 3);
}

TEST(Dinic, ParallelPathsAdd) {
  Digraph g(4);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 3, 2);
  g.add_arc(0, 2, 3);
  g.add_arc(2, 3, 3);
  EXPECT_EQ(dinic_max_flow(g, 0, 3).value, 5);
}

TEST(Dinic, ClassicCrossNetwork) {
  // The textbook example requiring a back edge.
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(0, 2, 1);
  g.add_arc(1, 2, 1);
  g.add_arc(1, 3, 1);
  g.add_arc(2, 3, 1);
  EXPECT_EQ(dinic_max_flow(g, 0, 3).value, 2);
}

TEST(Dinic, DisconnectedGivesZero) {
  Digraph g(4);
  g.add_arc(0, 1, 3);
  g.add_arc(2, 3, 3);
  EXPECT_EQ(dinic_max_flow(g, 0, 3).value, 0);
}

TEST(Dinic, RejectsSEqualsT) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  EXPECT_THROW((void)dinic_max_flow(g, 0, 0), std::invalid_argument);
}

TEST(Dinic, FlowIsAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Digraph g = graph::random_flow_network(15, 40, 7, seed);
    const auto r = dinic_max_flow(g, 0, 14);
    std::vector<double> f(r.flow.begin(), r.flow.end());
    EXPECT_TRUE(graph::is_feasible_st_flow(g, f, 0, 14)) << seed;
    EXPECT_GE(r.value, 1) << seed;  // generator embeds an s-t chain
  }
}

TEST(Dinic, MatchesMinCutOnLayeredNetworks) {
  const Digraph g = graph::layered_flow_network(3, 3, 4, 2);
  const auto r = dinic_max_flow(g, 0, g.num_vertices() - 1);
  // Sanity: value bounded by total source capacity.
  std::int64_t out_cap = 0;
  for (int a : g.out_arcs(0)) out_cap += g.arc(a).cap;
  EXPECT_LE(r.value, out_cap);
  EXPECT_GT(r.value, 0);
}

}  // namespace
}  // namespace lapclique::flow
