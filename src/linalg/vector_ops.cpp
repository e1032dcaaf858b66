#include "linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

#include "exec/pool.hpp"

namespace lapclique::linalg {

namespace {
void check_same(std::size_t a, std::size_t b) {
  if (a != b) throw std::invalid_argument("vector_ops: size mismatch");
}
}  // namespace

// Elementwise ops shard over the pool: each index has a fixed arithmetic
// sequence, so any sharding is bit-identical to sequential.  Reductions
// (dot, norm2, sum, project_out_ones) stay sequential on purpose — their
// accumulation order feeds iteration counts and restart boundaries, and the
// determinism contract pins those to the canonical ascending-index order.

double dot(std::span<const double> a, std::span<const double> b) {
  check_same(a.size(), b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm_inf(std::span<const double> a) {
  double m = 0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  check_same(x.size(), y.size());
  exec::parallel_for(static_cast<std::int64_t>(x.size()),
                     [&](std::int64_t b, std::int64_t e) {
                       for (std::int64_t i = b; i < e; ++i) {
                         y[static_cast<std::size_t>(i)] +=
                             alpha * x[static_cast<std::size_t>(i)];
                       }
                     });
}

void scale(double alpha, std::span<double> x) {
  exec::parallel_for(static_cast<std::int64_t>(x.size()),
                     [&](std::int64_t b, std::int64_t e) {
                       for (std::int64_t i = b; i < e; ++i) {
                         x[static_cast<std::size_t>(i)] *= alpha;
                       }
                     });
}

Vec add(std::span<const double> a, std::span<const double> b) {
  check_same(a.size(), b.size());
  Vec r(a.size());
  exec::parallel_for(static_cast<std::int64_t>(a.size()),
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         r[static_cast<std::size_t>(i)] =
                             a[static_cast<std::size_t>(i)] +
                             b[static_cast<std::size_t>(i)];
                       }
                     });
  return r;
}

Vec sub(std::span<const double> a, std::span<const double> b) {
  check_same(a.size(), b.size());
  Vec r(a.size());
  exec::parallel_for(static_cast<std::int64_t>(a.size()),
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         r[static_cast<std::size_t>(i)] =
                             a[static_cast<std::size_t>(i)] -
                             b[static_cast<std::size_t>(i)];
                       }
                     });
  return r;
}

void project_out_ones(std::span<double> x) {
  if (x.empty()) return;
  double mean = 0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  for (double& v : x) v -= mean;
}

double sum(std::span<const double> x) {
  double s = 0;
  for (double v : x) s += v;
  return s;
}

}  // namespace lapclique::linalg
