#include "support/chebyshev_reference.hpp"

namespace lapclique::test {

using linalg::axpy;
using linalg::norm2;
using linalg::Vec;

Vec unfused_chebyshev(const ApplyFn& apply_a, const ApplyFn& solve_b,
                      std::span<const double> b, const linalg::ChebyshevOptions& opt,
                      linalg::ChebyshevStats* stats) {
  // Eigenvalues of B^{-1} A lie in [1/kappa, 1] because A <= B <= kappa A.
  const double lmin = 1.0 / opt.kappa;
  const double lmax = 1.0;
  const double d = (lmax + lmin) / 2.0;
  const double c = (lmax - lmin) / 2.0;
  const int iters = linalg::chebyshev_iteration_bound(opt.kappa, opt.eps);

  const std::size_t n = b.size();
  Vec x(n, 0.0);
  Vec r(b.begin(), b.end());
  Vec p(n, 0.0);
  double alpha = 0.0;

  for (int k = 0; k < iters; ++k) {
    const Vec z = solve_b(r);
    if (k == 0) {
      p = z;
      alpha = 1.0 / d;
    } else {
      const double beta_num = c * alpha / 2.0;
      const double beta = beta_num * beta_num;
      alpha = 1.0 / (d - beta / alpha);
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    axpy(alpha, p, x);
    const Vec ap = apply_a(p);
    axpy(-alpha, ap, r);
    if (stats != nullptr && opt.record_trace) stats->residual_trace.push_back(norm2(r));
    if (stats != nullptr) stats->iterations = k + 1;
  }
  if (stats != nullptr) stats->final_residual = norm2(r);
  return x;
}

}  // namespace lapclique::test
