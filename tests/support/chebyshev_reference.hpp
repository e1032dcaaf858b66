// Unfused, one-column preconditioned Chebyshev iteration: the textbook form
// of Theorem 2.2 with A applied through a callback and separate vector
// sweeps.  It is the bitwise reference the fused block iteration
// (linalg::preconditioned_chebyshev) is tested against.
#pragma once

#include <functional>
#include <span>

#include "linalg/chebyshev.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::test {

using ApplyFn = std::function<linalg::Vec(std::span<const double>)>;

/// PreconCheby(A, B, b, kappa, eps) for one right-hand side: `apply_a`
/// applies A, `solve_b` applies B^{-1}.  Runs exactly
/// chebyshev_iteration_bound(opt.kappa, opt.eps) iterations.
linalg::Vec unfused_chebyshev(const ApplyFn& apply_a, const ApplyFn& solve_b,
                              std::span<const double> b,
                              const linalg::ChebyshevOptions& opt,
                              linalg::ChebyshevStats* stats = nullptr);

}  // namespace lapclique::test
