// Golden round-count regressions pinned to the tables in EXPERIMENTS.md.
//
// The simulator is deterministic, so these numbers are exact: any drift
// means an algorithmic change altered the round complexity the repo's
// claims are calibrated against, and EXPERIMENTS.md must be re-measured.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "euler/flow_round.hpp"
#include "graph/generators.hpp"
#include "solver/laplacian_solver.hpp"
#include "graph/rng.hpp"
#include "obs/round_ledger.hpp"

namespace {

using namespace lapclique;

// E1 (Theorem 1.1), first sweep: rounds vs eps at n=96, m=384, seed 11,
// pair demand b[0]=1, b[95]=-1.  Golden column from EXPERIMENTS.md.
TEST(GoldenRounds, E1LaplacianEpsSweep) {
  const Graph g = graph::random_connected_gnm(96, 384, 11);
  clique::Network net(96);
  obs::RoundLedger ledger;
  net.set_tracer(&ledger);  // tracing must not change the golden numbers
  const solver::CliqueLaplacianSolver solver(g, {}, net);
  std::vector<double> b(96, 0.0);
  b[0] = 1.0;
  b[95] = -1.0;

  const std::vector<std::pair<double, std::int64_t>> golden = {
      {1e-1, 12}, {1e-2, 20}, {1e-4, 35}, {1e-6, 49}, {1e-8, 64}, {1e-10, 79},
  };
  for (const auto& [eps, rounds] : golden) {
    net.reset_accounting();
    ledger.reset();
    (void)solver.solve(b, eps);
    EXPECT_EQ(net.rounds(), rounds) << "eps=" << eps;
#if LAPCLIQUE_TRACE
    EXPECT_EQ(ledger.total_rounds(), rounds) << "eps=" << eps;
#endif
  }
}

// E3 (Theorem 1.4): Eulerian orientation of the single cycle, n=16 — the
// first row of the EXPERIMENTS.md table.
TEST(GoldenRounds, E3EulerOrientationCycle16) {
  const Graph g = graph::cycle(16);
  clique::Network net(16);
  const auto rep = euler::eulerian_orientation(g, net);
  EXPECT_EQ(rep.rounds, 715);
  EXPECT_EQ(rep.levels, 4);
  ASSERT_TRUE(euler::is_eulerian_orientation(g, rep.orientation));
}

// E3, second row: same family at n=256 pins the log n scaling.
TEST(GoldenRounds, E3EulerOrientationCycle256) {
  const Graph g = graph::cycle(256);
  clique::Network net(256);
  const auto rep = euler::eulerian_orientation(g, net);
  EXPECT_EQ(rep.rounds, 1430);
  EXPECT_EQ(rep.levels, 7);
}

// E4 (Lemma 4.2): flow rounding at 1/Delta = 4 on table E4-delta's
// parallel-arc instance (48 s-t arcs, SplitMix64 seed 99, costs on).
TEST(GoldenRounds, E4FlowRounding) {
  const int k = 2;
  Digraph g(2);
  graph::SplitMix64 rng(99);
  graph::Flow f;
  const double delta = 1.0 / static_cast<double>(1LL << k);
  for (int j = 0; j < 48; ++j) {
    g.add_arc(0, 1, 1 << 21, static_cast<std::int64_t>(j % 7));
    f.push_back(static_cast<double>(rng.next_below(1ULL << k)) * delta);
  }
  clique::Network net(2);
  euler::FlowRoundingOptions opt;
  opt.delta = delta;
  opt.use_costs = true;
  const auto r = euler::round_flow(g, f, 0, 1, net, opt);
  EXPECT_EQ(r.phases, 2);
  EXPECT_EQ(r.rounds, 1788);
}

// --- broadcast-mode goldens -------------------------------------------------
// The same instances re-charged in the Broadcast Congested Clique
// (RoutingMode::kBroadcast, arXiv 2205.12059).  Solver rounds coincide with
// unicast (an all-to-all takes k rounds in both models; only the word
// counts diverge), while the Lenzen-routed Euler/rounding pipelines drop
// from the charged 16c bound to the exact max-words-per-source schedule.

TEST(GoldenRounds, E1LaplacianEpsSweepBroadcast) {
  const Graph g = graph::random_connected_gnm(96, 384, 11);
  clique::Network net(96);
  net.set_routing_mode(clique::RoutingMode::kBroadcast);
  const solver::CliqueLaplacianSolver solver(g, {}, net);
  std::vector<double> b(96, 0.0);
  b[0] = 1.0;
  b[95] = -1.0;

  const std::vector<std::pair<double, std::int64_t>> golden = {
      {1e-1, 12}, {1e-2, 20}, {1e-4, 35}, {1e-6, 49}, {1e-8, 64}, {1e-10, 79},
  };
  for (const auto& [eps, rounds] : golden) {
    net.reset_accounting();
    (void)solver.solve(b, eps);
    EXPECT_EQ(net.rounds(), rounds) << "eps=" << eps;
  }
}

TEST(GoldenRounds, E3EulerOrientationCycle16Broadcast) {
  const Graph g = graph::cycle(16);
  clique::Network net(16);
  net.set_routing_mode(clique::RoutingMode::kBroadcast);
  const auto rep = euler::eulerian_orientation(g, net);
  EXPECT_EQ(rep.rounds, 104);
  EXPECT_EQ(rep.levels, 4);
  ASSERT_TRUE(euler::is_eulerian_orientation(g, rep.orientation));
}

TEST(GoldenRounds, E3EulerOrientationCycle256Broadcast) {
  const Graph g = graph::cycle(256);
  clique::Network net(256);
  net.set_routing_mode(clique::RoutingMode::kBroadcast);
  const auto rep = euler::eulerian_orientation(g, net);
  EXPECT_EQ(rep.rounds, 206);
  EXPECT_EQ(rep.levels, 7);
}

TEST(GoldenRounds, E4FlowRoundingBroadcast) {
  const int k = 2;
  Digraph g(2);
  graph::SplitMix64 rng(99);
  graph::Flow f;
  const double delta = 1.0 / static_cast<double>(1LL << k);
  for (int j = 0; j < 48; ++j) {
    g.add_arc(0, 1, 1 << 21, static_cast<std::int64_t>(j % 7));
    f.push_back(static_cast<double>(rng.next_below(1ULL << k)) * delta);
  }
  clique::Network net(2);
  net.set_routing_mode(clique::RoutingMode::kBroadcast);
  euler::FlowRoundingOptions opt;
  opt.delta = delta;
  opt.use_costs = true;
  const auto r = euler::round_flow(g, f, 0, 1, net, opt);
  EXPECT_EQ(r.phases, 2);
  EXPECT_EQ(r.rounds, 241);
}

}  // namespace
