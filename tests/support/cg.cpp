#include "support/cg.hpp"

#include <cmath>

namespace lapclique::test {

using linalg::axpy;
using linalg::CsrMatrix;
using linalg::dot;
using linalg::norm2;
using linalg::project_out_ones;
using linalg::Vec;

CgResult conjugate_gradient(const std::function<Vec(std::span<const double>)>& apply_a,
                            int n, std::span<const double> b, double tol,
                            int max_iters, bool project_kernel) {
  Vec rhs(b.begin(), b.end());
  if (project_kernel) project_out_ones(rhs);

  CgResult res;
  res.x.assign(static_cast<std::size_t>(n), 0.0);
  Vec r = rhs;
  Vec p = r;
  double rr = dot(r, r);
  const double b_norm = std::max(norm2(rhs), 1e-300);

  for (int k = 0; k < max_iters; ++k) {
    if (std::sqrt(rr) <= tol * b_norm) {
      res.converged = true;
      break;
    }
    Vec ap = apply_a(p);
    if (project_kernel) project_out_ones(ap);
    const double pap = dot(p, ap);
    if (!(pap > 0)) break;  // hit the kernel or lost positive-definiteness
    const double alpha = rr / pap;
    axpy(alpha, p, res.x);
    axpy(-alpha, ap, r);
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    ++res.iterations;
  }
  res.residual_norm = std::sqrt(rr);
  if (res.residual_norm <= tol * b_norm) res.converged = true;
  if (project_kernel) project_out_ones(res.x);
  return res;
}

CgResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b, double tol,
                            int max_iters, bool project_kernel) {
  return conjugate_gradient(
      [&a](std::span<const double> x) { return a.multiply(x); }, a.size(), b, tol,
      max_iters, project_kernel);
}

}  // namespace lapclique::test
