#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace lapclique::graph {
namespace {

TEST(Generators, PathShape) {
  const Graph g = path(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleShape) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.num_edges(), 6);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_THROW(cycle(2), std::invalid_argument);
}

TEST(Generators, CompleteShape) {
  const Graph g = complete(5);
  EXPECT_EQ(g.num_edges(), 10);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, StarShape) {
  const Graph g = star(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 4);
}

TEST(Generators, GridShape) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CirculantIsRegularAndConnected) {
  const std::vector<int> offs{1, 2, 5};
  const Graph g = circulant(16, offs);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CirculantHalfOffsetNotDoubled) {
  const std::vector<int> offs{4};
  const Graph g = circulant(8, offs);
  EXPECT_EQ(g.num_edges(), 4);  // perfect matching, not 8 edges
}

TEST(Generators, CirculantRejectsBadOffsets) {
  const std::vector<int> bad{0};
  EXPECT_THROW(circulant(8, bad), std::invalid_argument);
}

TEST(Generators, BarbellHasBottleneck) {
  const Graph g = barbell(5);
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 2 * 10 + 1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, LollipopShape) {
  const Graph g = lollipop(6, 4);
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 15 + 4);  // K6 + tail
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(6), 2);  // first tail vertex: clique joint + next
  EXPECT_EQ(g.degree(9), 1);  // tail end
  EXPECT_EQ(g.degree(0), 6);  // clique vertex carrying the tail
  EXPECT_THROW(lollipop(1, 3), std::invalid_argument);
  EXPECT_THROW(lollipop(4, 0), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegreeSumAndCounts) {
  const int n = 40;
  const int m_per = 3;
  const Graph g = barabasi_albert(n, m_per, 5);
  // Seed clique C(m+1, 2) edges, then m per later vertex.
  const int expect_m = m_per * (m_per + 1) / 2 + (n - (m_per + 1)) * m_per;
  EXPECT_EQ(g.num_edges(), expect_m);
  std::int64_t degree_sum = 0;
  for (int v = 0; v < n; ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * static_cast<std::int64_t>(expect_m));
}

TEST(Generators, BarabasiAlbertConnectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_TRUE(is_connected(barabasi_albert(30, 2, seed))) << seed;
  }
}

TEST(Generators, BarabasiAlbertDeterministicAcrossRuns) {
  const Graph a = barabasi_albert(36, 2, 11);
  const Graph b = barabasi_albert(36, 2, 11);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

TEST(Generators, BarabasiAlbertSeedsDifferAndSkew) {
  const Graph a = barabasi_albert(36, 2, 11);
  const Graph b = barabasi_albert(36, 2, 12);
  bool differs = false;
  for (int e = 0; e < a.num_edges() && !differs; ++e) {
    differs = a.edge(e).u != b.edge(e).u || a.edge(e).v != b.edge(e).v;
  }
  EXPECT_TRUE(differs);
  // Preferential attachment concentrates degree on the early vertices.
  int max_deg = 0;
  for (int v = 0; v < 36; ++v) max_deg = std::max(max_deg, a.degree(v));
  EXPECT_GT(max_deg, 2 * 2);
}

TEST(Generators, GnmCountsAndDeterminism) {
  const Graph a = random_gnm(20, 40, 7);
  const Graph b = random_gnm(20, 40, 7);
  EXPECT_EQ(a.num_edges(), 40);
  ASSERT_EQ(b.num_edges(), a.num_edges());
  for (int e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

TEST(Generators, GnmDifferentSeedsDiffer) {
  const Graph a = random_gnm(20, 40, 7);
  const Graph b = random_gnm(20, 40, 8);
  bool differs = false;
  for (int e = 0; e < a.num_edges() && !differs; ++e) {
    differs = a.edge(e).u != b.edge(e).u || a.edge(e).v != b.edge(e).v;
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, ConnectedGnmIsConnected) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_TRUE(is_connected(random_connected_gnm(30, 45, seed))) << seed;
  }
}

TEST(Generators, RandomRegularDegreesNearD) {
  const Graph g = random_regular(20, 4, 3);
  // The configuration model may drop a few self-loop rejections.
  int total = 0;
  for (int v = 0; v < 20; ++v) total += g.degree(v);
  EXPECT_GE(total, 20 * 4 - 4);
  EXPECT_THROW(random_regular(5, 3, 1), std::invalid_argument);
}

TEST(Generators, RandomWeightsInRange) {
  const Graph g = with_random_weights(cycle(10), 16, 5);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 1.0);
    EXPECT_LE(e.w, 16.0);
    EXPECT_DOUBLE_EQ(e.w, std::floor(e.w));
  }
}

TEST(Generators, ClosedWalksHaveEvenDegrees) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = union_of_random_closed_walks(20, 4, 7, seed);
    EXPECT_TRUE(all_degrees_even(g)) << seed;
  }
}

TEST(Generators, DoubledHasEvenDegrees) {
  const Graph g = doubled(random_gnm(15, 25, 2));
  EXPECT_TRUE(all_degrees_even(g));
}

TEST(Generators, FlowNetworkHasPositiveMaxflowStructure) {
  const Digraph g = random_flow_network(12, 30, 8, 3);
  EXPECT_EQ(g.num_arcs(), 30);
  EXPECT_EQ(g.in_degree(0), 0);   // no arcs into s
  EXPECT_EQ(g.out_degree(11), 0);  // no arcs out of t
  for (int a = 0; a < g.num_arcs(); ++a) {
    EXPECT_GE(g.arc(a).cap, 1);
    EXPECT_LE(g.arc(a).cap, 8);
  }
}

TEST(Generators, LayeredNetworkShape) {
  const Digraph g = layered_flow_network(3, 4, 5, 1);
  EXPECT_EQ(g.num_vertices(), 2 + 12);
  EXPECT_EQ(g.out_degree(0), 4);
  EXPECT_EQ(g.in_degree(13), 4);
}

TEST(Generators, UnitCostDigraph) {
  const Digraph g = random_unit_cost_digraph(10, 25, 9, 4);
  EXPECT_EQ(g.num_arcs(), 25);
  for (int a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(g.arc(a).cap, 1);
    EXPECT_GE(g.arc(a).cost, 1);
    EXPECT_LE(g.arc(a).cost, 9);
  }
}

TEST(Generators, FlowInstancesRefuseMoreArcsThanTheVerticesHold) {
  // Both generators draw distinct pairs until they have m, so an m past the
  // pairs n vertices hold would never return.  n = 3 holds 0->1, 0->2 and
  // 1->2 with no arc into s = 0 or out of t = 2; n = 4 holds 4 * 3 arcs.
  EXPECT_EQ(random_flow_network(3, 3, 4, 1).num_arcs(), 3);
  EXPECT_THROW((void)random_flow_network(3, 4, 4, 1), std::invalid_argument);
  EXPECT_EQ(random_unit_cost_digraph(4, 12, 4, 1).num_arcs(), 12);
  EXPECT_THROW((void)random_unit_cost_digraph(4, 13, 4, 1), std::invalid_argument);
}

TEST(Generators, FeasibleDemandsSumToZero) {
  const Digraph g = random_unit_cost_digraph(12, 40, 5, 6);
  const auto sigma = feasible_unit_demands(g, 3, 11);
  EXPECT_EQ(std::accumulate(sigma.begin(), sigma.end(), std::int64_t{0}), 0);
}

}  // namespace
}  // namespace lapclique::graph
