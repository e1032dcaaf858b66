// Backend differential suite for the linalg::Backend seam.
//
// What the numerics layer must guarantee (docs/PERFORMANCE.md):
//   * resolve_backend is a pure function of (requested, n, nnz) — explicit
//     requests (this layer's test seam) always honored, kAuto deterministic
//     and environment-free;
//   * the sparse RCM-ordered LDL^T factors the same Laplacians the dense
//     path does, to the same answers (up to fp error of a different but
//     exact elimination order), with per-column block bit-identity;
//   * a solve is bit-stable across thread counts AND routing modes on an
//     instance that resolves dense and on one that resolves sparse;
//   * the fused Chebyshev triad is bitwise the unfused iteration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/api.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "support/chebyshev_reference.hpp"
#include "test_seed.hpp"

namespace {

using namespace lapclique;
using linalg::Backend;

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

linalg::Vec random_vec(int n, std::uint64_t salt) {
  std::mt19937_64 rng(test::base_seed() + salt);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Vec b(static_cast<std::size_t>(n));
  for (double& x : b) x = dist(rng);
  return b;
}

linalg::Vec mean_zero(linalg::Vec b) {
  double mean = 0;
  for (double x : b) mean += x;
  mean /= static_cast<double>(b.size());
  for (double& x : b) x -= mean;
  return b;
}

// --- the resolution contract ------------------------------------------------

TEST(Backend, ExplicitRequestsAlwaysHonored) {
  EXPECT_EQ(linalg::resolve_backend(Backend::kDense, 100000, 10), Backend::kDense);
  EXPECT_EQ(linalg::resolve_backend(Backend::kSparse, 4, 16), Backend::kSparse);
}

TEST(Backend, AutoResolvesBySizeAndSparsity) {
  // Below the size floor: dense, no matter how sparse.
  EXPECT_EQ(linalg::resolve_backend(Backend::kAuto, 511, 511), Backend::kDense);
  // At the floor and sparse enough (nnz * 16 <= n^2): sparse.
  EXPECT_EQ(linalg::resolve_backend(Backend::kAuto, 512, (512LL * 512) / 16),
            Backend::kSparse);
  // At the floor but too dense: dense.
  EXPECT_EQ(linalg::resolve_backend(Backend::kAuto, 512, (512LL * 512) / 16 + 1),
            Backend::kDense);
  // The golden instances (n <= 256) always resolve dense, preserving their
  // historical bits under kAuto.
  EXPECT_EQ(linalg::resolve_backend(Backend::kAuto, 96, 384 * 2 + 96),
            Backend::kDense);
  EXPECT_EQ(linalg::resolve_backend(Backend::kAuto, 256, 512), Backend::kDense);
}

// --- the RCM ordering -------------------------------------------------------

TEST(Backend, RcmOrderingIsDeterministicPermutation) {
  const Graph g = graph::random_connected_gnm(80, 240, test::base_seed() + 301);
  const linalg::CsrMatrix lap = graph::laplacian(g);
  const std::vector<int> perm = linalg::rcm_ordering(lap);
  ASSERT_EQ(perm.size(), 80u);
  std::vector<bool> seen(80, false);
  for (const int p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 80);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]) << "duplicate " << p;
    seen[static_cast<std::size_t>(p)] = true;
  }
  // Pure function of the pattern: a second call returns the same ordering.
  EXPECT_EQ(linalg::rcm_ordering(lap), perm);
}

// --- the sparse factor against the dense oracle -----------------------------

TEST(Backend, SparseFactorMatchesDenseOnConnectedGraph) {
  const Graph g = graph::random_connected_gnm(60, 180, test::base_seed() + 311);
  const linalg::CsrMatrix lap = graph::laplacian(g);
  const auto dense = linalg::BackendLaplacianFactor::factor(lap, Backend::kDense);
  const auto sparse = linalg::BackendLaplacianFactor::factor(lap, Backend::kSparse);
  EXPECT_EQ(dense.chosen(), Backend::kDense);
  EXPECT_EQ(sparse.chosen(), Backend::kSparse);
  EXPECT_EQ(sparse.stats().n, 60);
  EXPECT_GT(sparse.stats().fill_nnz, 0);
  // The RCM-ordered factor of an O(n log n)-edge Laplacian carries far less
  // fill than the dense triangle — the whole point of the sparse path.
  EXPECT_LT(sparse.stats().fill_nnz, dense.stats().fill_nnz);

  const linalg::Vec b = mean_zero(random_vec(60, 313));
  const linalg::Vec xd = dense.solve(b);
  const linalg::Vec xs = sparse.solve(b);
  ASSERT_EQ(xs.size(), b.size());
  // Both are exact solves (different elimination order, so not bitwise):
  // residuals vanish and the pseudoinverse normalization holds.
  const linalg::Vec rd = lap.multiply(xd);
  const linalg::Vec rs = lap.multiply(xs);
  double sum = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(rd[i], b[i], 1e-9) << i;
    EXPECT_NEAR(rs[i], b[i], 1e-9) << i;
    EXPECT_NEAR(xs[i], xd[i], 1e-8) << i;
    sum += xs[i];
  }
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

/// Two triangles: exercises per-component grounding and normalization.
Graph two_triangles() {
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 0, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 3.0);
  g.add_edge(5, 3, 1.0);
  return g;
}

TEST(Backend, SparseFactorHandlesMultipleComponents) {
  const linalg::CsrMatrix lap = graph::laplacian(two_triangles());
  const auto dense = linalg::BackendLaplacianFactor::factor(lap, Backend::kDense);
  const auto sparse = linalg::BackendLaplacianFactor::factor(lap, Backend::kSparse);
  // Per-component mean-zero RHS.
  linalg::Vec b = {1.0, -0.5, -0.5, 2.0, -1.0, -1.0};
  const linalg::Vec xd = dense.solve(b);
  const linalg::Vec xs = sparse.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(xs[i], xd[i], 1e-12) << i;
  }
}

TEST(Backend, SolveBlockColumnsBitIdenticalToScalarSolves) {
  const Graph connected = graph::random_connected_gnm(50, 140, test::base_seed() + 321);
  for (const Graph& g : {connected, two_triangles()}) {
    const linalg::CsrMatrix lap = graph::laplacian(g);
    const int n = g.num_vertices();
    for (const Backend backend : {Backend::kDense, Backend::kSparse}) {
      const auto factor = linalg::BackendLaplacianFactor::factor(lap, backend);
      const std::vector<linalg::Vec> bs = {mean_zero(random_vec(n, 322)),
                                           mean_zero(random_vec(n, 323)),
                                           mean_zero(random_vec(n, 324))};
      const std::vector<linalg::Vec> block = factor.solve_block(bs);
      ASSERT_EQ(block.size(), bs.size());
      for (std::size_t c = 0; c < bs.size(); ++c) {
        const linalg::Vec single = factor.solve(bs[c]);
        ASSERT_EQ(block[c].size(), single.size());
        for (std::size_t i = 0; i < single.size(); ++i) {
          EXPECT_EQ(bits_of(block[c][i]), bits_of(single[i]))
              << linalg::to_string(backend) << " n " << n << " col " << c << " row " << i;
        }
      }
    }
  }
}

// --- the fused Chebyshev triad ----------------------------------------------

TEST(Backend, FusedChebyshevBitwiseEqualsUnfused) {
  const Graph g = graph::random_connected_gnm(64, 200, test::base_seed() + 331);
  const linalg::CsrMatrix lap = graph::laplacian(g);
  // A = L + I is SPD; B = diag(A) (Jacobi) exercises a nontrivial solve_b.
  std::vector<linalg::Triplet> eye;
  for (int i = 0; i < 64; ++i) eye.push_back({i, i, 1.0});
  const linalg::CsrMatrix a = lap.plus(linalg::CsrMatrix::from_triplets(64, eye));
  std::vector<double> diag(64);
  for (int i = 0; i < 64; ++i) diag[static_cast<std::size_t>(i)] = a.at(i, i);

  const test::ApplyFn apply_a = [&](std::span<const double> v) {
    return a.multiply(v);
  };
  const test::ApplyFn jacobi = [&](std::span<const double> v) {
    linalg::Vec x(v.begin(), v.end());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] /= diag[i];
    return x;
  };
  const linalg::BlockApplyFn jacobi_block = [&](std::span<const linalg::Vec> vs) {
    std::vector<linalg::Vec> xs;
    for (const linalg::Vec& v : vs) xs.push_back(jacobi(v));
    return xs;
  };
  const std::vector<linalg::Vec> bs = {random_vec(64, 333), random_vec(64, 334),
                                       random_vec(64, 335)};

  linalg::ChebyshevOptions opt;
  opt.eps = 1e-10;
  opt.kappa = 16.0;
  std::vector<linalg::ChebyshevStats> fused_stats;
  const std::vector<linalg::Vec> fused =
      linalg::preconditioned_chebyshev(a, jacobi_block, bs, opt, &fused_stats);

  ASSERT_EQ(fused.size(), bs.size());
  for (std::size_t c = 0; c < bs.size(); ++c) {
    linalg::ChebyshevStats unfused_stats;
    const linalg::Vec unfused =
        test::unfused_chebyshev(apply_a, jacobi, bs[c], opt, &unfused_stats);
    EXPECT_EQ(fused_stats[c].iterations, unfused_stats.iterations) << c;
    EXPECT_EQ(bits_of(fused_stats[c].final_residual),
              bits_of(unfused_stats.final_residual))
        << c;
    ASSERT_EQ(fused[c].size(), unfused.size());
    for (std::size_t i = 0; i < unfused.size(); ++i) {
      EXPECT_EQ(bits_of(fused[c][i]), bits_of(unfused[i])) << c << "," << i;
    }
  }
}

// --- per-backend bit-stability across threads x routing modes ---------------

TEST(BackendDifferential, PerBackendBitStabilityAcrossThreadsAndRouting) {
  // kAuto picks the kernel from the instance: 300 vertices resolve dense
  // (and reach the dense LDL^T's row splits at 8 threads), 512 vertices with
  // m = 4n resolve sparse.
  for (const auto& [n, expected] : {std::pair{300, "dense"}, std::pair{512, "sparse"}}) {
    const Graph g = graph::with_random_weights(
        graph::random_connected_gnm(n, 4 * n, test::base_seed() + 341), 8.0,
        test::base_seed() + 342);
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    b.front() = 1.0;
    b.back() = -1.0;
    std::vector<std::vector<double>> outputs;
    for (const int threads : {1, 8}) {
      for (const clique::RoutingMode mode :
           {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
            clique::RoutingMode::kBroadcast}) {
        Runtime rt;
        rt.threads = threads;
        rt.routing_mode = mode;
        const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
        EXPECT_EQ(rep.run.numerics, expected);
        EXPECT_GT(rep.run.factor_fill, 0);
        outputs.push_back(rep.x);
      }
    }
    for (std::size_t k = 1; k < outputs.size(); ++k) {
      ASSERT_EQ(outputs[k].size(), outputs[0].size());
      for (std::size_t i = 0; i < outputs[k].size(); ++i) {
        EXPECT_EQ(bits_of(outputs[k][i]), bits_of(outputs[0][i]))
            << expected << " config " << k << " entry " << i;
      }
    }
  }
}

}  // namespace
