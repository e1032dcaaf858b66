// Electrical flows: Ohm/Kirchhoff sanity on known circuits, the layer both
// IPMs drive.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "flow/electrical.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::flow {
namespace {

linalg::Vec pair_demand(int n, int s, int t, double f = 1.0) {
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(s)] = -f;
  chi[static_cast<std::size_t>(t)] = f;
  return chi;
}

graph::Graph conductances(int n, const std::vector<ElectricalEdge>& edges) {
  graph::Graph g(n);
  for (const ElectricalEdge& e : edges) g.add_edge(e.u, e.v, 1.0 / e.resistance);
  return g;
}

TEST(Electrical, SeriesResistorsShareTheCurrent) {
  // s -0- a -1- t with resistances 2 and 3: unit current everywhere,
  // potential drop 2 then 3.
  ElectricalSolver solver(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  const auto phi = solver.potentials(pair_demand(3, 0, 2));
  const auto f = solver.induced_flow(phi);
  EXPECT_NEAR(f[0], 1.0, 1e-9);
  EXPECT_NEAR(f[1], 1.0, 1e-9);
  EXPECT_NEAR(phi[1] - phi[0], 2.0, 1e-9);
  EXPECT_NEAR(phi[2] - phi[1], 3.0, 1e-9);
}

TEST(Electrical, ParallelResistorsSplitByConductance) {
  // Two parallel edges r=1 and r=3 between s,t: currents 3/4 and 1/4.
  ElectricalSolver solver(2, {{0, 1, 1.0}, {0, 1, 3.0}});
  const auto phi = solver.potentials(pair_demand(2, 0, 1));
  const auto f = solver.induced_flow(phi);
  EXPECT_NEAR(f[0], 0.75, 1e-9);
  EXPECT_NEAR(f[1], 0.25, 1e-9);
}

TEST(Electrical, WheatstoneBalancedBridgeCarriesNothing) {
  // Balanced Wheatstone bridge: no current through the bridge edge.
  //   s=0, t=3, arms 0-1 (r=1), 1-3 (r=2), 0-2 (r=2), 2-3 (r=4),
  //   bridge 1-2 (r arbitrary).
  ElectricalSolver solver(
      4, {{0, 1, 1.0}, {1, 3, 2.0}, {0, 2, 2.0}, {2, 3, 4.0}, {1, 2, 5.0}});
  const auto phi = solver.potentials(pair_demand(4, 0, 3));
  const auto f = solver.induced_flow(phi);
  EXPECT_NEAR(f[4], 0.0, 1e-9);
}

TEST(Electrical, KirchhoffConservationAtInternalNodes) {
  ElectricalSolver solver(
      5, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}, {2, 4, 1.0}, {3, 4, 1.0}});
  const auto phi = solver.potentials(pair_demand(5, 0, 4, 2.0));
  const auto f = solver.induced_flow(phi);
  // Node 1: in from edge 0, out via edges 1 and 2.
  EXPECT_NEAR(f[0], f[1] + f[2], 1e-9);
  // Node 4 receives the full demand.
  EXPECT_NEAR(f[3] + f[4], 2.0, 1e-9);
}

TEST(Electrical, EnergyEqualsEffectiveResistanceTimesSquareFlow) {
  // For a unit s-t demand, sum r_e f_e^2 = R_eff(s,t) = phi_t - phi_s.
  ElectricalSolver solver(
      4, {{0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}, {1, 2, 1.0}});
  const auto phi = solver.potentials(pair_demand(4, 0, 3));
  const auto f = solver.induced_flow(phi);
  const std::vector<double> r{1.0, 1.0, 1.0, 1.0, 1.0};
  double energy = 0;
  for (std::size_t i = 0; i < f.size(); ++i) energy += r[i] * f[i] * f[i];
  EXPECT_NEAR(energy, phi[3] - phi[0], 1e-9);
}

TEST(Electrical, RejectsNonPositiveResistance) {
  EXPECT_THROW(ElectricalSolver(2, {{0, 1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(ElectricalSolver(2, {{0, 1, -1.0}}), std::invalid_argument);
}

TEST(Electrical, RejectsSizeMismatchedDemand) {
  ElectricalSolver solver(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const linalg::Vec bad(2, 0.0);
  EXPECT_THROW((void)solver.potentials(bad), std::invalid_argument);
}

TEST(Electrical, ExactSolveMatchesLaplacianSolver) {
  // The exact electrical solve against the Theorem 1.1 sparsifier-
  // preconditioned solver on the same conductance graph.
  std::vector<ElectricalEdge> edges;
  for (int i = 0; i < 12; ++i) {
    edges.push_back({i, (i + 1) % 12, 1.0 + (i % 3)});
    edges.push_back({i, (i + 4) % 12, 2.0});
  }
  const ElectricalSolver direct(12, edges);
  const solver::LaplacianSolver sparsified(conductances(12, edges));
  const auto chi = pair_demand(12, 0, 6);
  const auto pd = direct.potentials(chi);
  const auto ps = sparsified.solve(chi, 1e-9);
  for (int v = 0; v < 12; ++v) {
    EXPECT_NEAR(pd[static_cast<std::size_t>(v)], ps[static_cast<std::size_t>(v)],
                1e-5);
  }
}

/// A 12-vertex ring with chords and parallel edges (0-1 twice, 5-9 three
/// times), resistances drawn per `seed` on a fixed edge list.
std::vector<ElectricalEdge> parallel_edges(std::uint64_t seed) {
  std::vector<ElectricalEdge> edges;
  for (int i = 0; i < 12; ++i) {
    edges.push_back({i, (i + 1) % 12, 1.0});
    edges.push_back({i, (i + 5) % 12, 1.0});
  }
  edges.push_back({1, 0, 1.0});
  edges.push_back({5, 9, 1.0});
  edges.push_back({9, 5, 1.0});
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (ElectricalEdge& e : edges) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e.resistance = std::ldexp(1.0 + static_cast<double>(x % 997) / 97.0,
                              static_cast<int>(x % 41) - 20);
  }
  return edges;
}

std::vector<double> resistances(const std::vector<ElectricalEdge>& edges) {
  std::vector<double> r;
  for (const ElectricalEdge& e : edges) r.push_back(e.resistance);
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Electrical, RefactorIsBitwiseAFreshSolver) {
  // 12 vertices resolve to the dense kernel; the sparse kernel's refactor is
  // pinned bitwise by LaplacianFactor.RefactorIsBitwiseAFreshFactor.
  ElectricalSolver reused(12, parallel_edges(1));
  for (std::uint64_t seed = 2; seed <= 5; ++seed) {
    const std::vector<ElectricalEdge> edges = parallel_edges(seed);
    reused.refactor(resistances(edges));
    const ElectricalSolver fresh(12, edges);
    EXPECT_EQ(reused.factor_stats().fill_nnz, fresh.factor_stats().fill_nnz);
    for (const auto& [s, t] : {std::pair{0, 6}, std::pair{3, 10}}) {
      const auto phi = reused.potentials(pair_demand(12, s, t));
      EXPECT_TRUE(same_bits(phi, fresh.potentials(pair_demand(12, s, t)))) << seed;
      EXPECT_TRUE(same_bits(reused.induced_flow(phi), fresh.induced_flow(phi))) << seed;
    }
  }
}

TEST(Electrical, RefactorRejectsWhatTheConstructorRejects) {
  const auto message = [](auto&& build) -> std::string {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    const std::string want = bad == inf ? "Graph: weight must be positive"
                                        : "ElectricalSolver: resistances must be positive";
    EXPECT_EQ(message([&] { ElectricalSolver(3, {{0, 1, 1.0}, {1, 2, bad}}); }), want)
        << bad;
    ElectricalSolver solver(3, {{0, 1, 1.0}, {1, 2, 1.0}});
    const std::vector<double> r{1.0, bad};
    EXPECT_EQ(message([&] { solver.refactor(r); }), want) << bad;
  }
  ElectricalSolver solver(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const std::vector<double> one{1.0};
  EXPECT_THROW(solver.refactor(one), std::invalid_argument);
}

TEST(Electrical, CalibrateIsDeterministicAndPositive) {
  std::vector<ElectricalEdge> edges;
  for (int i = 0; i < 10; ++i) edges.push_back({i, (i + 1) % 10, 1.0});
  const auto a = calibrate_solve_rounds(10, edges, 1e-8);
  const auto b = calibrate_solve_rounds(10, edges, 1e-8);
  EXPECT_GT(a, 0);
  EXPECT_EQ(a, b);
  // It is exactly the cost of building and running one Theorem 1.1 solver.
  clique::Network net(10);
  const solver::LaplacianSolver s(conductances(10, edges), {}, &net);
  (void)s.solve(pair_demand(10, 0, 9), 1e-8, nullptr, &net);
  EXPECT_EQ(a, net.rounds());
}

}  // namespace
}  // namespace lapclique::flow
