// E7 — §1: deterministic vs randomized sparsifier inside the solver
// ("replacing the Laplacian solver by a simpler randomized solver converts
// the n^{o(1)} into a polylog n factor").
#include <cmath>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "spectral/random_sparsify.hpp"
#include "graph/laplacian.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/backend.hpp"

int main() {
  using namespace lapclique;
  bench::header("E7 (Section 1 remark)",
                "deterministic vs randomized sparsifier inside the solver");

  bench::row("%-6s | %12s | %12s | %12s | %12s", "n", "det |E(H)|",
             "det rounds", "rand |E(H)|", "rand rounds");
  for (int n : {32, 64, 128, 256}) {
    const Graph g = graph::random_connected_gnm(n, 6 * n, 41);
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    b[0] = 1.0;
    b[static_cast<std::size_t>(n - 1)] = -1.0;

    // Deterministic pipeline (Theorem 1.1).
    const auto det = solve_laplacian(g, b, 1e-6);

    // Randomized baseline: random sparsifier + the same Chebyshev engine.
    // Round model: sampling is local (1 round to agree on randomness),
    // gather H, then 1 round per Chebyshev iteration.
    spectral::RandomSparsifyOptions ropt;
    ropt.seed = static_cast<std::uint64_t>(n);
    const Graph h = spectral::random_sparsify(g, ropt);
    clique::Network net(n);
    net.charge(1);
    const auto nn = static_cast<std::int64_t>(n);
    net.charge((3 * h.num_edges() + nn - 1) / nn + 1);
    const auto lg = graph::laplacian(g);
    const auto lh = graph::laplacian(h);
    const auto hf = linalg::BackendLaplacianFactor::factor(lh);
    // Estimate kappa from the pencil via a few power iterations is part of
    // the deterministic machinery; for the randomized baseline we use the
    // standard w.h.p. bound kappa <= 4.
    linalg::ChebyshevOptions copt;
    copt.kappa = 16.0;
    copt.eps = 1e-6;
    std::vector<linalg::ChebyshevStats> stats;
    const std::vector<linalg::Vec> bs{b};
    (void)linalg::preconditioned_chebyshev(
        lg,
        [&hf](std::span<const linalg::Vec> rs) {
          std::vector<linalg::Vec> zs = hf.solve_block(rs);
          for (linalg::Vec& z : zs) {
            for (double& v : z) v /= 4.0;
          }
          return zs;
        },
        bs, copt, &stats);
    net.charge(stats[0].iterations);

    bench::row("%-6d | %12d | %12lld | %12d | %12lld", n,
               det.stats.sparsifier_edges, static_cast<long long>(det.run.rounds),
               h.num_edges(), static_cast<long long>(net.rounds()));
  }
  bench::row("%s", "");
  bench::row("%s",
             "Expected shape: both columns grow slowly; the deterministic "
             "pipeline pays extra n^{o(1)} sparsification rounds.");
  return 0;
}
