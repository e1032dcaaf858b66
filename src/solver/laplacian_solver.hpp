// Central (single-machine) Laplacian solver: deterministic sparsifier +
// preconditioned Chebyshev (Corollary 2.3).  The congested-clique wrapper in
// clique_laplacian.hpp adds the model round accounting of Theorem 1.1.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/graph.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/cholesky.hpp"
#include "spectral/sparsify.hpp"

namespace lapclique::solver {

/// No settable fields: the preconditioner's factor kernel follows the
/// instance (linalg::resolve_backend).  The type stays as a parameter of the
/// solver constructors and entry points that callers already pass it to.
struct LaplacianSolverOptions {};

struct LaplacianSolveStats {
  int chebyshev_iterations = 0;
  int restarts = 0;
  double kappa = 0;                ///< eigenvalue-range condition used
  double relative_residual = 0;    ///< ||L_G x - b||_2 / ||b||_2
  spectral::SparsifyStats sparsify_stats;
  int sparsifier_edges = 0;
  /// Guard rail fired: Chebyshev never certified its residual (divergence,
  /// non-finite iterates, or an exhausted restart budget) and the solver
  /// degraded to an exact direct factorization of L_G, charged under the
  /// "solver/fallback" phase.
  bool exact_fallback = false;
  /// What the preconditioner factorization did: chosen backend, instance
  /// size, and factor fill (linalg::Backend seam).
  linalg::FactorStats factor;
};

/// Reusable solver: the sparsifier and its factorization are built once at
/// construction, then solve_block() runs the O(sqrt(kappa) log(1/eps))
/// iteration.
///
/// When a Network is supplied, every model-visible communication is charged
/// on it (Theorem 1.1 accounting): sparsifier construction, the gather that
/// makes H globally known, one broadcast round per power-iteration matvec,
/// and one broadcast round per Chebyshev iteration (the matrix-vector
/// multiplication by L_G; the solve involving L_H is internal because H is
/// known to every node).
class LaplacianSolver {
 public:
  explicit LaplacianSolver(const graph::Graph& g,
                           const LaplacianSolverOptions& opt = {},
                           clique::Network* net = nullptr);

  /// x ~= L_G^+ b with ||x - L^+ b||_{L_G} <= eps ||L^+ b||_{L_G}: the
  /// one-column solve_block.
  [[nodiscard]] linalg::Vec solve(std::span<const double> b, double eps,
                                  LaplacianSolveStats* stats = nullptr,
                                  clique::Network* net = nullptr) const;

  /// Multi-RHS solve, the only solve path.  Column c of the result is
  /// BIT-IDENTICAL to solve(bs[c], eps): the restart schedule, fault drill,
  /// fallback decision, and every floating-point reduction run per column,
  /// while each Chebyshev iteration's matvec and preconditioner solve is one
  /// shared block pass over all columns still active at that restart level
  /// (linalg::preconditioned_chebyshev).  Network charging replays the
  /// per-column operation sequence in column order, so rounds, words, phase
  /// ledgers, fault-plan counters, and trace JSON equal those of k
  /// one-column solves.
  ///
  /// Thread-safe: it only reads the artifacts built at construction (the
  /// serve daemon issues concurrent solves against one cached solver); the
  /// lazily-built exact-fallback factor is mutex-guarded.
  [[nodiscard]] std::vector<linalg::Vec> solve_block(
      std::span<const linalg::Vec> bs, double eps,
      std::vector<LaplacianSolveStats>* stats = nullptr,
      clique::Network* net = nullptr) const;

  [[nodiscard]] const graph::Graph& sparsifier() const { return h_; }
  [[nodiscard]] const linalg::CsrMatrix& matrix() const { return lg_; }
  [[nodiscard]] double kappa() const { return kappa_; }
  /// Power-iteration matvec count spent estimating the range (each costs one
  /// broadcast round in the clique model).
  [[nodiscard]] int range_matvecs() const { return range_matvecs_; }
  /// Chosen backend and fill of the preconditioner factorization.
  [[nodiscard]] const linalg::FactorStats& factor_stats() const {
    return lh_factor_.stats();
  }

 private:
  graph::Graph h_;
  linalg::CsrMatrix lg_;
  linalg::CsrMatrix lh_;
  /// Returns the exact L_G factor, building it under the mutex on first use.
  std::shared_ptr<const linalg::BackendLaplacianFactor> lg_factor_or_build() const;

  linalg::BackendLaplacianFactor lh_factor_;
  /// Exact factorization of L_G itself, built lazily the first time the
  /// residual guard rail trips (see LaplacianSolveStats::exact_fallback).
  /// Shared-pointer + shared mutex so concurrent solves on one solver (the
  /// serve daemon's cache-hit path) stay race-free; copies of the solver
  /// share the cache, which is sound because they share the graph.
  mutable std::shared_ptr<const linalg::BackendLaplacianFactor> lg_factor_;
  mutable std::shared_ptr<std::mutex> lg_factor_mu_ =
      std::make_shared<std::mutex>();
  spectral::SparsifyStats sparsify_stats_;
  double lambda_min_ = 0;
  double lambda_max_ = 0;
  double kappa_ = 1;
  int range_matvecs_ = 0;
};

}  // namespace lapclique::solver
