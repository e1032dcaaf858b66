// Conjugate gradient reference solver: the numeric ground truth the linalg
// tests compare the LDL^T kernels and Laplacian solves against.
#pragma once

#include <functional>
#include <span>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::test {

struct CgResult {
  linalg::Vec x;
  int iterations = 0;
  double residual_norm = 0;
  bool converged = false;
};

/// Solves A x = b for symmetric PSD A (Laplacians included: right-hand sides
/// are projected out of the all-ones kernel first when `project_kernel`).
CgResult conjugate_gradient(const linalg::CsrMatrix& a, std::span<const double> b,
                            double tol = 1e-10, int max_iters = 10000,
                            bool project_kernel = true);

/// Operator form, for matrices applied implicitly.
CgResult conjugate_gradient(
    const std::function<linalg::Vec(std::span<const double>)>& apply_a, int n,
    std::span<const double> b, double tol = 1e-10, int max_iters = 10000,
    bool project_kernel = true);

}  // namespace lapclique::test
