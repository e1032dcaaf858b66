// Corollary 2.3 / the central half of Theorem 1.1.

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <random>

#include "exec/pool.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/vector_ops.hpp"
#include "solver/laplacian_solver.hpp"
#include "test_seed.hpp"

namespace lapclique::solver {
namespace {

using graph::Graph;
using linalg::Vec;

double energy_error(const Graph& g, const Vec& x, const Vec& b) {
  // ||x - L^+ b||_L / ||L^+ b||_L via an exact factorization.
  const auto l = graph::laplacian(g);
  const auto exact = linalg::BackendLaplacianFactor::factor(l);
  const Vec xstar = exact.solve(b);
  Vec diff = linalg::sub(x, xstar);
  const double ref = graph::laplacian_norm(l, xstar);
  if (ref == 0) return 0;
  return graph::laplacian_norm(l, diff) / ref;
}

Vec demand_pair(int n, int a, int b) {
  Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(a)] = 1.0;
  chi[static_cast<std::size_t>(b)] = -1.0;
  return chi;
}

class SolverEpsSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(SolverEpsSweep, ErrorBoundHolds) {
  const auto [eps, seed] = GetParam();
  const Graph g = graph::random_connected_gnm(30, 100, seed);
  const LaplacianSolver solver(g);
  const Vec b = demand_pair(30, 0, 29);
  LaplacianSolveStats stats;
  const Vec x = solver.solve(b, eps, &stats);
  EXPECT_LE(energy_error(g, x, b), eps * 2.0)
      << "eps=" << eps << " seed=" << seed << " kappa=" << stats.kappa;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverEpsSweep,
    ::testing::Combine(::testing::Values(1e-2, 1e-4, 1e-6, 1e-8),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

class SolverFamilySweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverFamilySweep, SolvesAcrossGraphFamilies) {
  Graph g;
  switch (GetParam()) {
    case 0:
      g = graph::cycle(24);
      break;
    case 1:
      g = graph::grid(5, 6);
      break;
    case 2: {
      const std::vector<int> offs{1, 3, 9};
      g = graph::circulant(27, offs);
      break;
    }
    case 3:
      g = graph::barbell(12);
      break;
    case 4:
      g = graph::complete(20);
      break;
    default:
      g = graph::with_random_weights(graph::random_connected_gnm(25, 80, 7), 64, 3);
  }
  const LaplacianSolver solver(g);
  const Vec b = demand_pair(g.num_vertices(), 0, g.num_vertices() - 1);
  const Vec x = solver.solve(b, 1e-6);
  EXPECT_LT(energy_error(g, x, b), 1e-5) << "family " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Families, SolverFamilySweep, ::testing::Range(0, 6));

TEST(LaplacianSolver, KappaEstimatedAboveOne) {
  const Graph g = graph::random_connected_gnm(25, 80, 4);
  const LaplacianSolver solver(g);
  EXPECT_GE(solver.kappa(), 1.0);
  EXPECT_GT(solver.range_matvecs(), 0);
}

TEST(LaplacianSolver, StatsReportIterationsAndResidual) {
  const Graph g = graph::random_connected_gnm(25, 80, 4);
  const LaplacianSolver solver(g);
  const Vec b = demand_pair(25, 1, 20);
  LaplacianSolveStats stats;
  (void)solver.solve(b, 1e-6, &stats);
  EXPECT_GT(stats.chebyshev_iterations, 0);
  EXPECT_GT(stats.sparsifier_edges, 0);
  EXPECT_LT(stats.relative_residual, 1e-5);
}

TEST(LaplacianSolver, RejectsBadEps) {
  const Graph g = graph::cycle(8);
  const LaplacianSolver solver(g);
  const Vec b = demand_pair(8, 0, 4);
  EXPECT_THROW((void)solver.solve(b, 0.9), std::invalid_argument);
  EXPECT_THROW((void)solver.solve(b, 0.0), std::invalid_argument);
}

TEST(LaplacianSolver, RejectsSizeMismatch) {
  const Graph g = graph::cycle(8);
  const LaplacianSolver solver(g);
  const Vec b(3, 0.0);
  EXPECT_THROW((void)solver.solve(b, 1e-4), std::invalid_argument);
}

TEST(LaplacianSolver, RepeatedSolvesReuseTheSparsifier) {
  const Graph g = graph::random_connected_gnm(30, 100, 8);
  const LaplacianSolver solver(g);
  for (int k = 1; k < 5; ++k) {
    const Vec b = demand_pair(30, 0, k * 5);
    const Vec x = solver.solve(b, 1e-5);
    EXPECT_LT(energy_error(g, x, b), 1e-4) << k;
  }
}

TEST(LaplacianSolver, WeightedGraphsWithLargeU) {
  const Graph g =
      graph::with_random_weights(graph::random_connected_gnm(24, 80, 10), 1 << 12, 5);
  const LaplacianSolver solver(g);
  const Vec b = demand_pair(24, 2, 17);
  const Vec x = solver.solve(b, 1e-6);
  EXPECT_LT(energy_error(g, x, b), 1e-5);
}

// --- batched multi-RHS solve: the serve daemon's bit-identity contract ----

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<Vec> random_rhs(int n, int k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Vec> bs(static_cast<std::size_t>(k));
  for (Vec& b : bs) {
    b.resize(static_cast<std::size_t>(n));
    for (double& x : b) x = dist(rng);
  }
  return bs;
}

class SolveBlockSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolveBlockSweep, ColumnsBitwiseEqualScalarSolves) {
  const auto [k, threads] = GetParam();
  const exec::ThreadScope scope(threads);
  const Graph g = graph::random_connected_gnm(28, 90, test::base_seed());
  const LaplacianSolver solver(g);
  const std::vector<Vec> bs =
      random_rhs(28, k, test::base_seed() + static_cast<std::uint64_t>(k));
  const double eps = 1e-7;

  std::vector<LaplacianSolveStats> want_stats;
  std::vector<Vec> want;
  for (const Vec& b : bs) {
    LaplacianSolveStats st;
    want.push_back(solver.solve(b, eps, &st));
    want_stats.push_back(st);
  }
  std::vector<LaplacianSolveStats> stats;
  const std::vector<Vec> got = solver.solve_block(bs, eps, &stats);

  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(stats.size(), want_stats.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].size(), want[c].size());
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      ASSERT_EQ(bits_of(got[c][i]), bits_of(want[c][i]))
          << "col " << c << " entry " << i;
    }
    EXPECT_EQ(stats[c].chebyshev_iterations, want_stats[c].chebyshev_iterations);
    EXPECT_EQ(stats[c].restarts, want_stats[c].restarts);
    EXPECT_EQ(stats[c].exact_fallback, want_stats[c].exact_fallback);
    EXPECT_EQ(bits_of(stats[c].kappa), bits_of(want_stats[c].kappa)) << c;
    EXPECT_EQ(bits_of(stats[c].relative_residual),
              bits_of(want_stats[c].relative_residual))
        << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolveBlockSweep,
                         ::testing::Combine(::testing::Values(1, 3, 6),
                                            ::testing::Values(1, 8)));

TEST(SolveBlock, NetworkAccountingEqualsSequentialScalarSolves) {
  // One solve_block on net B must leave exactly the accounting of k
  // sequential one-column solves on net A: rounds, words, per-phase ledger, op
  // log, and the observing RoundLedger's full JSON (span tree + counters).
  const Graph g = graph::random_connected_gnm(26, 80, test::base_seed() + 7);
  const std::vector<Vec> bs = random_rhs(26, 4, test::base_seed() + 8);
  const double eps = 1e-6;
  const LaplacianSolver solver(g);

  obs::RoundLedger ledger_seq;
  clique::Network net_seq(26);
  net_seq.set_tracer(&ledger_seq);
  for (const Vec& b : bs) (void)solver.solve(b, eps, nullptr, &net_seq);

  obs::RoundLedger ledger_blk;
  clique::Network net_blk(26);
  net_blk.set_tracer(&ledger_blk);
  (void)solver.solve_block(bs, eps, nullptr, &net_blk);

  EXPECT_EQ(net_blk.rounds(), net_seq.rounds());
  EXPECT_EQ(net_blk.words_sent(), net_seq.words_sent());
  EXPECT_EQ(net_blk.ledger().rounds_by_phase, net_seq.ledger().rounds_by_phase);
  ASSERT_EQ(net_blk.op_log().size(), net_seq.op_log().size());
  for (std::size_t i = 0; i < net_blk.op_log().size(); ++i) {
    EXPECT_EQ(net_blk.op_log()[i].phase, net_seq.op_log()[i].phase) << i;
    EXPECT_EQ(net_blk.op_log()[i].rounds, net_seq.op_log()[i].rounds) << i;
    EXPECT_EQ(net_blk.op_log()[i].words, net_seq.op_log()[i].words) << i;
  }
  EXPECT_EQ(ledger_blk.to_json().dump(), ledger_seq.to_json().dump());
}

struct FaultCase {
  const char* spec;
  bool all_fall_back;     ///< every column ends on the exact fallback
  int min_restarts;       ///< every column restarts at least this often
  bool recovery_charged;  ///< the plan's delivery faults charge recovery
};

/// Test listings name each case by its fault spec.
void PrintTo(const FaultCase& fc, std::ostream* os) { *os << fc.spec; }

class SolveBlockFaults : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SolveBlockFaults, MatchesOneColumnSolves) {
  // With a fault plan armed, one k-column solve must leave exactly what k
  // one-column solves leave: the solver-nan drill is a pure function of the
  // restart level, and the charges (hence the plan's recovery draws) replay
  // in column order.
  const FaultCase& fc = GetParam();
  const Graph g = graph::random_connected_gnm(20, 60, test::base_seed() + 9);
  const std::vector<Vec> bs = random_rhs(20, 3, test::base_seed() + 10);
  const double eps = 1e-6;
  const LaplacianSolver solver(g);
  const fault::FaultSpec spec = fault::parse_fault_spec(fc.spec);

  fault::FaultPlan plan_seq(spec, 5);
  obs::RoundLedger ledger_seq;
  clique::Network net_seq(20);
  net_seq.set_fault_plan(&plan_seq);
  net_seq.set_tracer(&ledger_seq);
  std::vector<Vec> want;
  std::vector<LaplacianSolveStats> want_stats(bs.size());
  for (std::size_t c = 0; c < bs.size(); ++c) {
    want.push_back(solver.solve(bs[c], eps, &want_stats[c], &net_seq));
  }

  fault::FaultPlan plan_blk(spec, 5);
  obs::RoundLedger ledger_blk;
  clique::Network net_blk(20);
  net_blk.set_fault_plan(&plan_blk);
  net_blk.set_tracer(&ledger_blk);
  std::vector<LaplacianSolveStats> stats;
  const std::vector<Vec> got = solver.solve_block(bs, eps, &stats, &net_blk);

  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(stats.size(), want_stats.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      ASSERT_EQ(bits_of(got[c][i]), bits_of(want[c][i])) << c << "," << i;
    }
    EXPECT_EQ(stats[c].chebyshev_iterations, want_stats[c].chebyshev_iterations) << c;
    EXPECT_EQ(stats[c].restarts, want_stats[c].restarts) << c;
    EXPECT_EQ(stats[c].exact_fallback, want_stats[c].exact_fallback) << c;
    EXPECT_EQ(bits_of(stats[c].kappa), bits_of(want_stats[c].kappa)) << c;
    EXPECT_EQ(bits_of(stats[c].relative_residual),
              bits_of(want_stats[c].relative_residual))
        << c;
    EXPECT_EQ(stats[c].exact_fallback, fc.all_fall_back) << c;
    EXPECT_GE(stats[c].restarts, fc.min_restarts) << c;
  }
  EXPECT_EQ(net_blk.rounds(), net_seq.rounds());
  EXPECT_EQ(net_blk.words_sent(), net_seq.words_sent());
  // The plan's JSON carries every RecoveryStats field.
  EXPECT_EQ(plan_blk.to_json().dump(), plan_seq.to_json().dump());
  EXPECT_EQ(ledger_blk.to_json().dump(), ledger_seq.to_json().dump());
  EXPECT_EQ(plan_blk.stats().solver_fallbacks,
            fc.all_fall_back ? static_cast<std::int64_t>(bs.size()) : 0);
  EXPECT_EQ(plan_blk.stats().recovery_rounds > 0, fc.recovery_charged);
}

INSTANTIATE_TEST_SUITE_P(Specs, SolveBlockFaults,
                         ::testing::Values(FaultCase{"solver-nan@all", true, 7, false},
                                           FaultCase{"solver-nan@0", false, 1, false},
                                           FaultCase{"drop=0.05,corrupt=0.02", false, 0,
                                                     true}));

TEST(SolveBlock, ValidatesInput) {
  const Graph g = graph::random_connected_gnm(12, 30, test::base_seed() + 11);
  const LaplacianSolver solver(g);
  EXPECT_TRUE(solver.solve_block({}, 1e-6).empty());
  const std::vector<Vec> bad{Vec(11, 0.0)};
  EXPECT_THROW((void)solver.solve_block(bad, 1e-6), std::invalid_argument);
  const std::vector<Vec> ok{Vec(12, 0.0)};
  EXPECT_THROW((void)solver.solve_block(ok, 0.9), std::invalid_argument);
}

}  // namespace
}  // namespace lapclique::solver
