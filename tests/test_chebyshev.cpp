// Theorem 2.2 / Corollary 2.3: preconditioned Chebyshev iteration.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/backend.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {
namespace {

/// B^{-1} applied column by column through a factor's block solve.
BlockApplyFn block_solve(const BackendLaplacianFactor& f) {
  return [&f](std::span<const Vec> rs) { return f.solve_block(rs); };
}

/// One-column Chebyshev call: the single right-hand side is a block of one.
Vec chebyshev_one(const CsrMatrix& a, const BlockApplyFn& solve_b, const Vec& b,
                  const ChebyshevOptions& opt, ChebyshevStats* stats = nullptr) {
  std::vector<ChebyshevStats> st;
  std::vector<Vec> x = preconditioned_chebyshev(a, solve_b, std::span<const Vec>(&b, 1),
                                                opt, &st);
  if (stats != nullptr) *stats = st[0];
  return std::move(x[0]);
}

TEST(ChebyshevBound, GrowsWithKappaAndPrecision) {
  EXPECT_LT(chebyshev_iteration_bound(2.0, 1e-4),
            chebyshev_iteration_bound(16.0, 1e-4));
  EXPECT_LT(chebyshev_iteration_bound(4.0, 1e-2),
            chebyshev_iteration_bound(4.0, 1e-8));
}

TEST(ChebyshevBound, MatchesSqrtKappaLogEps) {
  const int k = chebyshev_iteration_bound(9.0, 1e-6);
  EXPECT_EQ(k, static_cast<int>(std::ceil(3.0 * std::log(2e6))) + 1);
}

TEST(ChebyshevBound, RejectsBadArguments) {
  EXPECT_THROW(chebyshev_iteration_bound(0.5, 1e-4), std::invalid_argument);
  EXPECT_THROW(chebyshev_iteration_bound(2.0, 0.9), std::invalid_argument);
}

TEST(Chebyshev, ExactWithIdentityPreconditioner) {
  // A = B = I: kappa = 1, converges immediately.
  const int n = 8;
  Vec b(n);
  for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = i - 3.5;
  std::vector<Triplet> eye;
  for (int i = 0; i < n; ++i) eye.push_back({i, i, 1.0});
  const CsrMatrix id = CsrMatrix::from_triplets(n, eye);
  const BlockApplyFn id_solve = [](std::span<const Vec> rs) {
    return std::vector<Vec>(rs.begin(), rs.end());
  };
  ChebyshevOptions opt;
  opt.kappa = 1.0;
  opt.eps = 1e-10;
  const Vec x = chebyshev_one(id, id_solve, b, opt);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-9);
  }
}

class ChebyshevLaplacianTest : public ::testing::TestWithParam<double> {};

// Corollary 2.3's error bound, measured exactly: solve with a *scaled*
// preconditioner B = kappa-distorted Laplacian and verify
// ||x - L^+ b||_{L} <= eps ||L^+ b||_{L}.
TEST_P(ChebyshevLaplacianTest, EnergyNormErrorBoundHolds) {
  const double eps = GetParam();
  const graph::Graph g = graph::random_connected_gnm(24, 60, 5);
  const CsrMatrix l = graph::laplacian(g);
  const BackendLaplacianFactor exact = BackendLaplacianFactor::factor(l);

  // Preconditioner: B = 3 L (so A <= B' <= kappa A with the scaling below).
  const double kappa = 3.0;
  const BlockApplyFn solve_b = [&exact](std::span<const Vec> rs) {
    // B^{-1} = (kappa * L / kappa)^{-1} acting as L^+ here.
    std::vector<Vec> zs = exact.solve_block(rs);
    for (Vec& z : zs) scale(1.0, z);
    return zs;
  };

  Vec b(24, 0.0);
  b[0] = 1.0;
  b[23] = -1.0;
  ChebyshevOptions opt;
  opt.kappa = kappa;  // deliberately pessimistic (true kappa is 1)
  opt.eps = eps;
  const Vec x = chebyshev_one(l, solve_b, b, opt);

  const Vec xstar = exact.solve(b);
  Vec diff = sub(x, xstar);
  const double err = graph::laplacian_norm(l, diff);
  const double ref = graph::laplacian_norm(l, xstar);
  EXPECT_LE(err, eps * ref * 1.5 + 1e-12) << "eps = " << eps;
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, ChebyshevLaplacianTest,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-8));

TEST(Chebyshev, ConvergesWithGenuinelyWeakPreconditioner) {
  // A = Laplacian of a barbell; B = Laplacian of a spanning-ish sparsifier
  // (the path through the graph).  kappa is large but finite; with a
  // generous kappa setting Chebyshev still converges.
  const graph::Graph g = graph::barbell(6);
  const CsrMatrix l = graph::laplacian(g);
  // Preconditioner: same barbell with all weights doubled (kappa = 2).
  graph::Graph h = g;
  h.scale_weights(2.0);
  const CsrMatrix lh = graph::laplacian(h);
  const BackendLaplacianFactor hf = BackendLaplacianFactor::factor(lh);
  const BackendLaplacianFactor exact = BackendLaplacianFactor::factor(l);

  Vec b(12, 0.0);
  b[0] = 1.0;
  b[11] = -1.0;
  ChebyshevOptions opt;
  opt.kappa = 4.0;
  opt.eps = 1e-8;
  ChebyshevStats stats;
  const Vec x = chebyshev_one(l, block_solve(hf), b, opt, &stats);
  const Vec xstar = exact.solve(b);
  Vec diff = sub(x, xstar);
  EXPECT_LE(graph::laplacian_norm(l, diff),
            1e-6 * std::max(graph::laplacian_norm(l, xstar), 1.0));
  EXPECT_GT(stats.iterations, 0);
}

TEST(Chebyshev, ResidualTraceDecreasesMonotonically) {
  const graph::Graph g = graph::random_connected_gnm(16, 40, 2);
  const CsrMatrix l = graph::laplacian(g);
  const BackendLaplacianFactor lf = BackendLaplacianFactor::factor(l);
  Vec b(16, 0.0);
  b[3] = 1.0;
  b[12] = -1.0;
  ChebyshevOptions opt;
  opt.kappa = 2.0;
  opt.eps = 1e-10;
  opt.record_trace = true;
  ChebyshevStats stats;
  (void)chebyshev_one(l, block_solve(lf), b, opt, &stats);
  ASSERT_GE(stats.residual_trace.size(), 3u);
  EXPECT_LT(stats.residual_trace.back(), stats.residual_trace.front());
}

TEST(Chebyshev, IterationCountMatchesTheoremRate) {
  // With kappa = 4 the theoretical count is ~ 2 ln(2/eps); verify the
  // implementation runs exactly the bound.
  const graph::Graph g = graph::cycle(10);
  const CsrMatrix l = graph::laplacian(g);
  const BackendLaplacianFactor lf = BackendLaplacianFactor::factor(l);
  Vec b(10, 0.0);
  b[0] = 1.0;
  b[5] = -1.0;
  ChebyshevOptions opt;
  opt.kappa = 4.0;
  opt.eps = 1e-6;
  ChebyshevStats stats;
  (void)chebyshev_one(l, block_solve(lf), b, opt, &stats);
  EXPECT_EQ(stats.iterations, chebyshev_iteration_bound(4.0, 1e-6));
}

}  // namespace
}  // namespace lapclique::linalg
