#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "exec/pool.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/csr.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "support/cg.hpp"
#include "test_seed.hpp"

namespace lapclique::linalg {
namespace {

TEST(VectorOps, DotAndNorms) {
  const Vec a{1.0, 2.0, -2.0};
  const Vec b{3.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 2.0);
  EXPECT_THROW((void)dot(a, Vec{1.0}), std::invalid_argument);
}

TEST(VectorOps, AxpyScaleAddSub) {
  Vec y{1.0, 1.0};
  const Vec x{2.0, 3.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  const Vec s = add(x, y);
  EXPECT_DOUBLE_EQ(s[1], 6.5);
  const Vec d = sub(x, y);
  EXPECT_DOUBLE_EQ(d[0], -0.5);
}

TEST(VectorOps, ProjectOutOnesMakesMeanZero) {
  Vec x{1.0, 2.0, 3.0, 6.0};
  project_out_ones(x);
  EXPECT_NEAR(sum(x), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
}

TEST(Csr, FromTripletsSumsDuplicatesDropsZeros) {
  const std::vector<Triplet> t{{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 5.0}, {1, 1, 0.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, t);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, RejectsOutOfRange) {
  const std::vector<Triplet> t{{0, 5, 1.0}};
  EXPECT_THROW(CsrMatrix::from_triplets(2, t), std::out_of_range);
}

TEST(Csr, MultiplyMatchesDense) {
  const std::vector<Triplet> t{{0, 0, 2.0}, {0, 2, -1.0}, {1, 1, 3.0}, {2, 0, -1.0},
                               {2, 2, 4.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(3, t);
  const Vec x{1.0, 2.0, 3.0};
  const Vec y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
}

TEST(Csr, QuadraticFormMatchesMultiply) {
  const graph::Graph g = graph::random_connected_gnm(12, 24, 5);
  const CsrMatrix l = graph::laplacian(g);
  Vec x(12);
  for (int i = 0; i < 12; ++i) x[static_cast<std::size_t>(i)] = std::sin(i + 1.0);
  const Vec lx = l.multiply(x);
  EXPECT_NEAR(l.quadratic_form(x), dot(x, lx), 1e-9);
}

TEST(Csr, PlusAndScaled) {
  const std::vector<Triplet> ta{{0, 0, 1.0}, {0, 1, 2.0}};
  const std::vector<Triplet> tb{{0, 0, 3.0}, {1, 1, 4.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, ta);
  const CsrMatrix b = CsrMatrix::from_triplets(2, tb);
  const CsrMatrix c = a.plus(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 4.0);
  const CsrMatrix d = a.scaled(2.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 4.0);
}

TEST(Csr, ToDenseRoundTrip) {
  const std::vector<Triplet> t{{0, 1, 2.0}, {1, 0, 2.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, t);
  const auto d = m.to_dense();
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
}

TEST(JacobiEigen, DiagonalMatrix) {
  const std::vector<double> d{3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0};
  const auto eig = jacobi_eigen(3, d);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-10);
}

TEST(JacobiEigen, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const std::vector<double> m{2.0, 1.0, 1.0, 2.0};
  const auto eig = jacobi_eigen(2, m);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

TEST(JacobiEigen, PathLaplacianSpectrum) {
  // L(P3) = [[1,-1,0],[-1,2,-1],[0,-1,1]] has eigenvalues {0, 1, 3}.
  const graph::Graph g = graph::path(3);
  const auto eig = jacobi_eigen(3, graph::laplacian(g).to_dense());
  EXPECT_NEAR(eig.values[0], 0.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-10);
}

TEST(JacobiEigen, EigenvectorsReconstruct) {
  const graph::Graph g = graph::cycle(5);
  const CsrMatrix l = graph::laplacian(g);
  const auto eig = jacobi_eigen(5, l.to_dense());
  // Check A v = lambda v for the largest pair.
  Vec v(5);
  for (int r = 0; r < 5; ++r) v[static_cast<std::size_t>(r)] = eig.vector_at(r, 4);
  const Vec av = l.multiply(v);
  for (int r = 0; r < 5; ++r) {
    EXPECT_NEAR(av[static_cast<std::size_t>(r)],
                eig.values[4] * v[static_cast<std::size_t>(r)], 1e-8);
  }
}

TEST(GeneralizedCondition, IdenticalGraphsGiveOne) {
  const graph::Graph g = graph::random_connected_gnm(10, 20, 3);
  const CsrMatrix l = graph::laplacian(g);
  EXPECT_NEAR(generalized_condition_number(l, l), 1.0, 1e-6);
}

TEST(GeneralizedCondition, ScaledGraphGivesScale) {
  graph::Graph g = graph::random_connected_gnm(10, 20, 3);
  const CsrMatrix l = graph::laplacian(g);
  graph::Graph h = g;
  h.scale_weights(4.0);
  const CsrMatrix lh = graph::laplacian(h);
  // Pencil L x = lambda (4L) x has all eigenvalues 1/4 -> condition 1.
  EXPECT_NEAR(generalized_condition_number(l, lh), 1.0, 1e-6);
}

TEST(GeneralizedCondition, DetectsSpectralGap) {
  // Path vs cycle on the same vertices: adding the closing edge changes the
  // quadratic form by at most a factor related to n; condition must be > 1.
  const graph::Graph p = graph::path(8);
  graph::Graph c = p;
  c.add_edge(0, 7);
  const double k =
      generalized_condition_number(graph::laplacian(c), graph::laplacian(p));
  EXPECT_GT(k, 1.5);
  EXPECT_LT(k, 100.0);
}

TEST(Cg, SolvesLaplacianSystem) {
  const graph::Graph g = graph::random_connected_gnm(15, 40, 8);
  const CsrMatrix l = graph::laplacian(g);
  Vec b(15, 0.0);
  b[0] = 1.0;
  b[14] = -1.0;
  const test::CgResult r = test::conjugate_gradient(l, b, 1e-12);
  EXPECT_TRUE(r.converged);
  const Vec lx = l.multiply(r.x);
  for (int i = 0; i < 15; ++i) {
    EXPECT_NEAR(lx[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST(Cg, OperatorFormMatchesMatrixForm) {
  const graph::Graph g = graph::cycle(9);
  const CsrMatrix l = graph::laplacian(g);
  Vec b(9, 0.0);
  b[2] = 2.0;
  b[6] = -2.0;
  const test::CgResult r1 = test::conjugate_gradient(l, b, 1e-12);
  const test::CgResult r2 = test::conjugate_gradient(
      [&l](std::span<const double> x) { return l.multiply(x); }, 9, b, 1e-12);
  for (int i = 0; i < 9; ++i) {
    EXPECT_NEAR(r1.x[static_cast<std::size_t>(i)], r2.x[static_cast<std::size_t>(i)],
                1e-8);
  }
}

// --- multi-RHS block kernels: per-column bit-identity to one-column calls ---
//
// The serve daemon's batched requests promise every column of a block solve
// is BIT-identical to a standalone solve; these property tests pin that at
// the kernel layer for every block primitive, across thread counts, with
// instances seeded from LAPCLIQUE_TEST_SEED.

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<Vec> random_columns(int n, int k, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<Vec> cols(static_cast<std::size_t>(k));
  for (Vec& col : cols) {
    col.resize(static_cast<std::size_t>(n));
    for (double& x : col) x = dist(rng);
  }
  return cols;
}

void expect_columns_bitwise_equal(const std::vector<Vec>& got,
                                  const std::vector<Vec>& want,
                                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].size(), want[c].size()) << what << " col " << c;
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      ASSERT_EQ(bits_of(got[c][i]), bits_of(want[c][i]))
          << what << " col " << c << " entry " << i;
    }
  }
}

class BlockKernels : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Reference for CsrMatrix::multiply_block_axpy_into: per column, the
/// two-pass `y[c] += coef * multiply(x[c])`.
std::vector<Vec> multiply_axpy_per_column(const CsrMatrix& a, double coef,
                                          const std::vector<Vec>& xs,
                                          std::vector<Vec> ys) {
  for (std::size_t c = 0; c < xs.size(); ++c) axpy(coef, a.multiply(xs[c]), ys[c]);
  return ys;
}

TEST_P(BlockKernels, CsrMultiplyBlockBitwiseEqualsScalar) {
  const auto [k, threads] = GetParam();
  const exec::ThreadScope scope(threads);
  std::mt19937_64 rng(test::base_seed() + static_cast<std::uint64_t>(k));
  const graph::Graph g = graph::random_connected_gnm(40, 140, test::base_seed());
  const CsrMatrix l = graph::laplacian(g);
  const std::vector<Vec> xs = random_columns(40, k, rng);
  const std::vector<Vec> y0 = random_columns(40, k, rng);
  const double coef = -0.37;

  const std::vector<Vec> want = multiply_axpy_per_column(l, coef, xs, y0);
  std::vector<Vec> got = y0;
  l.multiply_block_axpy_into(coef, xs, got);
  expect_columns_bitwise_equal(got, want, "csr");
}

TEST_P(BlockKernels, LaplacianFactorSolveBlockBitwiseEqualsScalar) {
  const auto [k, threads] = GetParam();
  const exec::ThreadScope scope(threads);
  std::mt19937_64 rng(test::base_seed() + 100 + static_cast<std::uint64_t>(k));
  const graph::Graph g = graph::random_connected_gnm(35, 110, test::base_seed() + 1);
  const BackendLaplacianFactor f = BackendLaplacianFactor::factor(graph::laplacian(g));
  const std::vector<Vec> bs = random_columns(35, k, rng);

  std::vector<Vec> want;
  want.reserve(bs.size());
  for (const Vec& b : bs) want.push_back(f.solve(b));
  expect_columns_bitwise_equal(f.solve_block(bs), want, "factor");
}

TEST_P(BlockKernels, PreconditionedChebyshevBlockBitwiseEqualsScalar) {
  // A k-column call against k one-column calls of the one entry point.
  const auto [k, threads] = GetParam();
  const exec::ThreadScope scope(threads);
  std::mt19937_64 rng(test::base_seed() + 200 + static_cast<std::uint64_t>(k));
  const graph::Graph g = graph::random_connected_gnm(30, 90, test::base_seed() + 2);
  const CsrMatrix l = graph::laplacian(g);
  const BackendLaplacianFactor f = BackendLaplacianFactor::factor(l);
  std::vector<Vec> bs = random_columns(30, k, rng);
  for (Vec& b : bs) project_out_ones(b);

  ChebyshevOptions opt;
  opt.eps = 1e-9;
  opt.kappa = 4.0;
  const BlockApplyFn solve_b = [&f](std::span<const Vec> rs) {
    return f.solve_block(rs);
  };

  std::vector<Vec> want;
  std::vector<ChebyshevStats> want_stats;
  for (const Vec& b : bs) {
    std::vector<ChebyshevStats> st;
    want.push_back(
        preconditioned_chebyshev(l, solve_b, std::span<const Vec>(&b, 1), opt, &st)[0]);
    want_stats.push_back(st[0]);
  }
  std::vector<ChebyshevStats> stats;
  const std::vector<Vec> got = preconditioned_chebyshev(l, solve_b, bs, opt, &stats);
  expect_columns_bitwise_equal(got, want, "chebyshev");
  ASSERT_EQ(stats.size(), want_stats.size());
  for (std::size_t c = 0; c < stats.size(); ++c) {
    EXPECT_EQ(stats[c].iterations, want_stats[c].iterations) << c;
    EXPECT_EQ(bits_of(stats[c].final_residual), bits_of(want_stats[c].final_residual))
        << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockKernels,
                         ::testing::Combine(::testing::Values(1, 3, 7),
                                            ::testing::Values(1, 8)));

TEST(BlockKernels, SolveBlockHandlesDisconnectedComponents) {
  // Two components: the factor grounds one vertex per component and the
  // block path must replicate the per-component projection bit-for-bit.
  graph::Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 0.5);
  const BackendLaplacianFactor f = BackendLaplacianFactor::factor(graph::laplacian(g));
  std::mt19937_64 rng(test::base_seed() + 300);
  const std::vector<Vec> bs = random_columns(6, 4, rng);
  std::vector<Vec> want;
  for (const Vec& b : bs) want.push_back(f.solve(b));
  expect_columns_bitwise_equal(f.solve_block(bs), want, "disconnected");
}

TEST(BlockKernels, EmptyAndSingleColumnEdgeCases) {
  const graph::Graph g = graph::cycle(8);
  const CsrMatrix l = graph::laplacian(g);
  const BackendLaplacianFactor f = BackendLaplacianFactor::factor(l);
  std::vector<Vec> none;
  EXPECT_NO_THROW(l.multiply_block_axpy_into(2.0, {}, none));
  EXPECT_TRUE(f.solve_block({}).empty());
  const std::vector<Vec> one{Vec(8, 1.5)};
  std::vector<Vec> got{Vec(8, 0.25)};
  l.multiply_block_axpy_into(2.0, one, got);
  expect_columns_bitwise_equal(got, multiply_axpy_per_column(l, 2.0, one, {Vec(8, 0.25)}),
                               "k=1");
}

TEST(BlockKernels, MultiplyBlockRejectsColumnSizeMismatch) {
  const CsrMatrix l = graph::laplacian(graph::cycle(5));
  const std::vector<Vec> bad{Vec(5, 1.0), Vec(4, 1.0)};
  std::vector<Vec> y{Vec(5, 0.0), Vec(5, 0.0)};
  EXPECT_THROW(l.multiply_block_axpy_into(1.0, bad, y), std::invalid_argument);
  const std::vector<Vec> two{Vec(5, 1.0), Vec(5, 1.0)};
  std::vector<Vec> one_y{Vec(5, 0.0)};
  EXPECT_THROW(l.multiply_block_axpy_into(1.0, two, one_y), std::invalid_argument);
}

}  // namespace
}  // namespace lapclique::linalg
