#include "linalg/chebyshev.hpp"

#include <cmath>
#include <stdexcept>

#include "exec/pool.hpp"

namespace lapclique::linalg {

int chebyshev_iteration_bound(double kappa, double eps) {
  if (!(kappa >= 1.0)) throw std::invalid_argument("chebyshev: kappa must be >= 1");
  if (!(eps > 0 && eps <= 0.5)) throw std::invalid_argument("chebyshev: eps in (0, 1/2]");
  return static_cast<int>(std::ceil(std::sqrt(kappa) * std::log(2.0 / eps))) + 1;
}

std::vector<Vec> preconditioned_chebyshev(const CsrMatrix& a,
                                          const BlockApplyFn& solve_b,
                                          std::span<const Vec> b,
                                          const ChebyshevOptions& opt,
                                          std::vector<ChebyshevStats>* stats) {
  const std::size_t k = b.size();
  if (stats != nullptr) {
    stats->clear();
    stats->resize(k);
  }
  if (k == 0) return {};

  // Eigenvalues of B^{-1} A lie in [1/kappa, 1] because A <= B <= kappa A.
  const double lmin = 1.0 / opt.kappa;
  const double lmax = 1.0;
  const double d = (lmax + lmin) / 2.0;
  const double c = (lmax - lmin) / 2.0;
  const int iters = chebyshev_iteration_bound(opt.kappa, opt.eps);

  const std::size_t n = b[0].size();
  std::vector<Vec> x(k, Vec(n, 0.0));
  std::vector<Vec> r(b.begin(), b.end());
  std::vector<Vec> p(k, Vec(n, 0.0));
  double alpha = 0.0;

  // The alpha/beta sequence is a pure function of the iteration index, so
  // every column shares it, and every elementwise update and per-column
  // reduction below touches its own column only: column c never depends on
  // how many other columns ride along.
  for (int it = 0; it < iters; ++it) {
    std::vector<Vec> z = solve_b(r);
    if (it == 0) {
      p = std::move(z);
      alpha = 1.0 / d;
      for (std::size_t col = 0; col < k; ++col) axpy(alpha, p[col], x[col]);
    } else {
      const double beta_num = c * alpha / 2.0;
      const double beta = beta_num * beta_num;
      alpha = 1.0 / (d - beta / alpha);
      // Fused triad: the p recurrence and the x accumulation share one pass.
      // Per element the two statements are exactly the textbook pair
      // `p = z + beta p; x += alpha p`, so fusing cannot change a bit.
      const double al = alpha;
      exec::parallel_for(static_cast<std::int64_t>(n),
                         [&](std::int64_t lo, std::int64_t hi) {
                           for (std::size_t col = 0; col < k; ++col) {
                             double* pc = p[col].data();
                             double* xc = x[col].data();
                             const double* zc = z[col].data();
                             for (std::int64_t i = lo; i < hi; ++i) {
                               const auto iu = static_cast<std::size_t>(i);
                               pc[iu] = zc[iu] + beta * pc[iu];
                               xc[iu] += al * pc[iu];
                             }
                           }
                         });
    }
    // r -= alpha * (A p) without materializing A p.
    a.multiply_block_axpy_into(-alpha, p, r);
    if (stats != nullptr) {
      for (std::size_t col = 0; col < k; ++col) {
        if (opt.record_trace) (*stats)[col].residual_trace.push_back(norm2(r[col]));
        (*stats)[col].iterations = it + 1;
      }
    }
  }
  if (stats != nullptr) {
    for (std::size_t col = 0; col < k; ++col) {
      (*stats)[col].final_residual = norm2(r[col]);
    }
  }
  return x;
}

}  // namespace lapclique::linalg
