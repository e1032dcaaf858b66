#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "linalg/vector_ops.hpp"
#include "support/cg.hpp"

namespace lapclique::linalg {
namespace {

CsrMatrix sdd_from_graph(const graph::Graph& g, double shift) {
  // Laplacian + shift*I is SPD.
  std::vector<Triplet> t;
  const CsrMatrix l = graph::laplacian(g);
  for (int r = 0; r < l.size(); ++r) {
    for (int k = l.row_ptr()[static_cast<std::size_t>(r)];
         k < l.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      t.push_back({r, l.col_idx()[static_cast<std::size_t>(k)],
                   l.values()[static_cast<std::size_t>(k)]});
    }
    t.push_back({r, r, shift});
  }
  return CsrMatrix::from_triplets(l.size(), t);
}

TEST(DenseLdlt, SolvesSmallSpd) {
  // A = [[4,1],[1,3]]
  const std::vector<double> a{4.0, 1.0, 1.0, 3.0};
  const DenseLdlt f = DenseLdlt::factor(2, a);
  const Vec x = f.solve(Vec{1.0, 2.0});
  // Solution of [[4,1],[1,3]] x = [1,2]: x = [1/11, 7/11].
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(DenseLdlt, ThrowsOnIndefinite) {
  const std::vector<double> a{0.0, 1.0, 1.0, 0.0};
  EXPECT_THROW(DenseLdlt::factor(2, a, 1e-12), std::runtime_error);
}

TEST(DenseLdlt, SizeMismatchThrows) {
  const std::vector<double> a{1.0, 2.0};
  EXPECT_THROW(DenseLdlt::factor(2, a), std::invalid_argument);
}

TEST(DenseLdlt, MatchesCgOnSpdSystem) {
  const graph::Graph g = graph::random_connected_gnm(20, 50, 4);
  const CsrMatrix a = sdd_from_graph(g, 0.7);
  Vec b(20);
  for (int i = 0; i < 20; ++i) b[static_cast<std::size_t>(i)] = std::cos(i * 1.3);
  const DenseLdlt f = DenseLdlt::factor(20, a.to_dense());
  const Vec x1 = f.solve(b);
  const test::CgResult x2 = test::conjugate_gradient(a, b, 1e-13, 10000, false);
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(x1[static_cast<std::size_t>(i)], x2.x[static_cast<std::size_t>(i)],
                1e-7);
  }
}

// The pseudoinverse wrapper, run over both kernels behind it.
constexpr Backend kBackends[] = {Backend::kDense, Backend::kSparse};

TEST(LaplacianFactor, PseudoinverseActionOnConnectedGraph) {
  const graph::Graph g = graph::random_connected_gnm(12, 28, 9);
  const CsrMatrix l = graph::laplacian(g);
  Vec b(12, 0.0);
  b[0] = 3.0;
  b[7] = -3.0;
  for (const Backend backend : kBackends) {
    const BackendLaplacianFactor f = BackendLaplacianFactor::factor(l, backend);
    const Vec x = f.solve(b);
    // L x = b and mean(x) = 0.
    const Vec lx = l.multiply(x);
    for (int i = 0; i < 12; ++i) {
      EXPECT_NEAR(lx[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-9)
          << to_string(backend);
    }
    EXPECT_NEAR(sum(x), 0.0, 1e-9) << to_string(backend);
  }
}

TEST(LaplacianFactor, ProjectsOffRangeRhs) {
  const graph::Graph g = graph::cycle(6);
  const CsrMatrix l = graph::laplacian(g);
  // b with nonzero mean: the solver should act on the projected b.
  Vec b(6, 1.0);
  b[0] = 4.0;
  Vec bp = b;
  project_out_ones(bp);
  for (const Backend backend : kBackends) {
    const BackendLaplacianFactor f = BackendLaplacianFactor::factor(l, backend);
    const Vec x = f.solve(b);
    const Vec lx = l.multiply(x);
    for (int i = 0; i < 6; ++i) {
      EXPECT_NEAR(lx[static_cast<std::size_t>(i)], bp[static_cast<std::size_t>(i)], 1e-9)
          << to_string(backend);
    }
  }
}

TEST(LaplacianFactor, HandlesDisconnectedComponents) {
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  const CsrMatrix l = graph::laplacian(g);
  Vec b{1.0, 0.0, -1.0, 2.0, 0.0, -2.0};
  for (const Backend backend : kBackends) {
    const BackendLaplacianFactor f = BackendLaplacianFactor::factor(l, backend);
    const Vec x = f.solve(b);
    const Vec lx = l.multiply(x);
    for (int i = 0; i < 6; ++i) {
      EXPECT_NEAR(lx[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-9)
          << to_string(backend);
    }
    // The pseudoinverse is mean-zero on each component {0,1,2} and {3,4,5}.
    EXPECT_NEAR(x[0] + x[1] + x[2], 0.0, 1e-9) << to_string(backend);
    EXPECT_NEAR(x[3] + x[4] + x[5], 0.0, 1e-9) << to_string(backend);
  }
}

TEST(SparseLdlt, MatchesDenseOnSpdSystems) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const graph::Graph g = graph::random_connected_gnm(25, 60, seed);
    const CsrMatrix a = sdd_from_graph(g, 0.9);
    const SparseLdlt sf = SparseLdlt::factor(a);
    const DenseLdlt df = DenseLdlt::factor(25, a.to_dense());
    Vec b(25);
    for (int i = 0; i < 25; ++i) {
      b[static_cast<std::size_t>(i)] = std::sin(i * 0.7 + static_cast<double>(seed));
    }
    const Vec xs = sf.solve(b);
    const Vec xd = df.solve(b);
    for (int i = 0; i < 25; ++i) {
      EXPECT_NEAR(xs[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)],
                  1e-8)
          << "seed " << seed;
    }
  }
}

TEST(SparseLdlt, FillInReportedAndBounded) {
  const graph::Graph g = graph::path(50);
  const CsrMatrix a = sdd_from_graph(g, 0.5);
  const SparseLdlt f = SparseLdlt::factor(a);
  // A path in natural order factors with zero fill: n-1 off-diagonals + n.
  EXPECT_EQ(f.fill_nnz(), 50 + 49);
}

TEST(SparseLdlt, ThrowsOnIndefinite) {
  const std::vector<Triplet> t{{0, 1, 1.0}, {1, 0, 1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, t);
  EXPECT_THROW(SparseLdlt::factor(a), std::runtime_error);
}

TEST(SparseLdlt, LargerRandomSystemAgainstCg) {
  const graph::Graph g = graph::random_connected_gnm(80, 240, 17);
  const CsrMatrix a = sdd_from_graph(g, 1.1);
  const SparseLdlt f = SparseLdlt::factor(a);
  Vec b(80);
  for (int i = 0; i < 80; ++i) b[static_cast<std::size_t>(i)] = ((i * 37) % 11) - 5.0;
  const Vec x = f.solve(b);
  const Vec ax = a.multiply(x);
  for (int i = 0; i < 80; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-7);
  }
}

}  // namespace
}  // namespace lapclique::linalg
