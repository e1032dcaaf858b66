#include "linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

namespace lapclique::linalg {

namespace {
void check_same(std::size_t a, std::size_t b) {
  if (a != b) throw std::invalid_argument("vector_ops: size mismatch");
}
}  // namespace

// Every op runs on the calling thread.  Reductions (dot, norm2, sum,
// project_out_ones) accumulate in ascending index order on purpose: that
// order feeds iteration counts and restart boundaries, and the determinism
// contract pins them to it.

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
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

Vec add(std::span<const double> a, std::span<const double> b) {
  check_same(a.size(), b.size());
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

Vec sub(std::span<const double> a, std::span<const double> b) {
  check_same(a.size(), b.size());
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
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
