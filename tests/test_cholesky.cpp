#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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

/// The weighted graph both refactor tests factor: two components, {0..5}
/// and {6..11}, each a ring plus chords, with parallel edges 0-1 (twice) and
/// 7-8 (three times).  Weights are drawn per `seed`; the pattern is not.
graph::Graph parallel_two_component_graph(std::uint64_t seed) {
  graph::Graph g(12);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto weight = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return 0.25 + static_cast<double>(x % 1000) / 125.0;
  };
  for (int base : {0, 6}) {
    for (int i = 0; i < 6; ++i) g.add_edge(base + i, base + (i + 1) % 6, weight());
    g.add_edge(base, base + 3, weight());
    g.add_edge(base + 1, base + 4, weight());
  }
  g.add_edge(0, 1, weight());
  g.add_edge(7, 8, weight());
  g.add_edge(7, 8, weight());
  return g;
}

/// L(g) with vertices 0 and 6 grounded: their rows and columns dropped and
/// their diagonals pinned to 1, so the matrix is SPD.
CsrMatrix grounded_laplacian(const graph::Graph& g) {
  const CsrMatrix l = graph::laplacian(g);
  std::vector<Triplet> t;
  for (int r = 0; r < l.size(); ++r) {
    if (r == 0 || r == 6) {
      t.push_back({r, r, 1.0});
      continue;
    }
    for (int k = l.row_ptr()[static_cast<std::size_t>(r)];
         k < l.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = l.col_idx()[static_cast<std::size_t>(k)];
      if (c == 0 || c == 6) continue;
      t.push_back({r, c, l.values()[static_cast<std::size_t>(k)]});
    }
  }
  return CsrMatrix::from_triplets(l.size(), t);
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Vec test_rhs(int n, int k) {
  Vec b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = std::sin(1.3 * i + k);
  return b;
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

TEST(LaplacianFactor, RefactorIsBitwiseAFreshFactor) {
  const CsrMatrix l1 = graph::laplacian(parallel_two_component_graph(1));
  for (const Backend backend : kBackends) {
    BackendLaplacianFactor f = BackendLaplacianFactor::factor(l1, backend);
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
      const CsrMatrix l2 = graph::laplacian(parallel_two_component_graph(seed));
      f.refactor(l2.values());
      const BackendLaplacianFactor fresh = BackendLaplacianFactor::factor(l2, backend);
      EXPECT_EQ(f.stats().fill_nnz, fresh.stats().fill_nnz) << to_string(backend);
      for (int k = 0; k < 3; ++k) {
        const Vec b = test_rhs(12, k);
        EXPECT_TRUE(same_bits(f.solve(b), fresh.solve(b)))
            << to_string(backend) << " seed " << seed;
      }
    }
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

TEST(SparseLdlt, RefactorIsBitwiseAFreshFactor) {
  const CsrMatrix a1 = grounded_laplacian(parallel_two_component_graph(1));
  SparseLdlt f = SparseLdlt::factor(a1);
  const std::int64_t fill = f.fill_nnz();
  for (std::uint64_t seed = 2; seed <= 5; ++seed) {
    const CsrMatrix a2 = grounded_laplacian(parallel_two_component_graph(seed));
    ASSERT_TRUE(std::ranges::equal(a1.row_ptr(), a2.row_ptr()));
    ASSERT_TRUE(std::ranges::equal(a1.col_idx(), a2.col_idx()));
    f.refactor(a2.values());
    const SparseLdlt fresh = SparseLdlt::factor(a2);
    EXPECT_EQ(f.fill_nnz(), fill) << "seed " << seed;
    EXPECT_EQ(fresh.fill_nnz(), fill) << "seed " << seed;
    for (int k = 0; k < 3; ++k) {
      const Vec b = test_rhs(12, k);
      EXPECT_TRUE(same_bits(f.solve(b), fresh.solve(b))) << "seed " << seed;
    }
  }
}

TEST(SparseLdlt, RefactorRejectsIndefiniteAndMismatchedValues) {
  const std::vector<Triplet> spd{{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}};
  SparseLdlt f = SparseLdlt::factor(CsrMatrix::from_triplets(2, spd));
  // [[0, 1], [1, 0]] on the same pattern: the first pivot is zero.
  const std::vector<double> indefinite{0.0, 1.0, 1.0, 0.0};
  try {
    f.refactor(indefinite);
    FAIL() << "expected the pivot-collapse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("pivot collapsed"), std::string::npos)
        << e.what();
  }
  const std::vector<double> short_values{2.0, 1.0, 2.0};
  EXPECT_THROW(f.refactor(short_values), std::invalid_argument);
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
