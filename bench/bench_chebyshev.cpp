// E8 — Corollary 2.3: the measured energy-norm error of the solver is below
// the requested eps, and the iteration count tracks O(sqrt(kappa) log(1/eps)).
#include <cmath>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "solver/laplacian_solver.hpp"

int main() {
  using namespace lapclique;
  bench::header("E8 (Corollary 2.3)",
                "measured ||x - L^+ b||_L / ||L^+ b||_L <= eps and iteration law");

  const Graph g = graph::random_connected_gnm(48, 192, 51);
  const auto l = graph::laplacian(g);
  const auto exact = linalg::BackendLaplacianFactor::factor(l);
  std::vector<double> b(48, 0.0);
  b[0] = 1.0;
  b[47] = -1.0;
  const auto xstar = exact.solve(b);
  const double ref = graph::laplacian_norm(l, xstar);

  const solver::LaplacianSolver solver(g);
  bench::row("solver kappa estimate: %.2f", solver.kappa());
  bench::row("%-10s | %14s | %10s | %22s", "eps", "measured err", "iters",
             "iters/(sqrt(k)ln(1/e))");
  for (double eps : {1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10}) {
    solver::LaplacianSolveStats stats;
    const auto x = solver.solve(b, eps, &stats);
    auto diff = linalg::sub(x, xstar);
    const double err = graph::laplacian_norm(l, diff) / ref;
    const double law = std::sqrt(stats.kappa) * std::log(1.0 / eps);
    bench::row("%-10.0e | %14.3e | %10d | %22.2f", eps, err,
               stats.chebyshev_iterations,
               stats.chebyshev_iterations / std::max(law, 1.0));
  }
  bench::row("%s", "");
  bench::row("%s",
             "Claim check: 'measured err' column must sit below the eps "
             "column; the law ratio should be ~constant.");
  return 0;
}
