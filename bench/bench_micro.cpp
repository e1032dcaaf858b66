// M1-M4 — wall-clock micro benchmarks of the numerical substrate
// (google-benchmark).  These measure host time, not model rounds.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "spectral/sparsify.hpp"

namespace {

using namespace lapclique;

void BM_LaplacianMatvec(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const graph::Graph g = graph::random_connected_gnm(n, 6 * n, 1);
  const auto l = graph::laplacian(g);
  linalg::Vec x(static_cast<std::size_t>(n), 1.0);
  linalg::Vec y(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    l.multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LaplacianMatvec)->Arg(128)->Arg(512)->Arg(2048);

void BM_DenseLdltFactor(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const graph::Graph g = graph::random_connected_gnm(n, 6 * n, 2);
  auto l = graph::laplacian(g);
  auto dense = l.to_dense();
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(i)] += 1.0;
  }
  for (auto _ : state) {
    auto f = linalg::DenseLdlt::factor(n, dense);
    benchmark::DoNotOptimize(&f);
  }
}
BENCHMARK(BM_DenseLdltFactor)->Arg(64)->Arg(256)->Arg(512);

void BM_SparseLdltFactor(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const graph::Graph g = graph::random_connected_gnm(n, 4 * n, 3);
  auto l = graph::laplacian(g);
  std::vector<linalg::Triplet> t;
  for (int r = 0; r < n; ++r) {
    for (int k = l.row_ptr()[static_cast<std::size_t>(r)];
         k < l.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      t.push_back({r, l.col_idx()[static_cast<std::size_t>(k)],
                   l.values()[static_cast<std::size_t>(k)]});
    }
    t.push_back({r, r, 1.0});
  }
  const auto a = linalg::CsrMatrix::from_triplets(n, t);
  for (auto _ : state) {
    auto f = linalg::SparseLdlt::factor(a);
    benchmark::DoNotOptimize(&f);
  }
}
BENCHMARK(BM_SparseLdltFactor)->Arg(64)->Arg(256)->Arg(512);

void BM_DeterministicSparsify(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const graph::Graph g = graph::random_connected_gnm(n, 8 * n, 5);
  for (auto _ : state) {
    auto r = spectral::deterministic_sparsify(g);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_DeterministicSparsify)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
