#include "solver/laplacian_solver.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/vector_ops.hpp"

namespace lapclique::solver {

using linalg::Vec;

namespace {
/// Power-iteration steps for estimating the eigenvalue range of L_H^+ L_G
/// (deterministic).
constexpr int kRangeIterations = 60;
/// Safety factor widening the estimated range.
constexpr double kRangeSafety = 1.3;
/// If the measured residual exceeds the target, the Chebyshev pass is
/// restarted with doubled kappa (robustness against a sparsifier whose alpha
/// deviates from the estimate); up to this many restarts.
constexpr int kMaxRestarts = 6;
}  // namespace

LaplacianSolver::LaplacianSolver(const graph::Graph& g,
                                 const LaplacianSolverOptions& /*opt*/,
                                 clique::Network* net) {
  if (net != nullptr) net->set_phase("solver/sparsify");
  spectral::SparsifyResult sp = spectral::deterministic_sparsify(g, {}, net);
  h_ = std::move(sp.h);
  sparsify_stats_ = sp.stats;
  if (h_.num_edges() == 0 && g.num_edges() > 0) h_ = g;  // tiny graphs
  if (net != nullptr) {
    // Make H known to every node: 3 words per edge (u, v, w) gathered.
    net->set_phase("solver/gather_sparsifier");
    net->charge_gossip(3 * static_cast<std::int64_t>(h_.num_edges()));
  }
  lg_ = graph::laplacian(g);
  lh_ = graph::laplacian(h_);
  lh_factor_ = linalg::BackendLaplacianFactor::factor(lh_);

  // Deterministic power iteration for the spectral range of M = L_H^+ L_G.
  const int n = g.num_vertices();
  auto apply_m = [this](const Vec& x) {
    Vec y = lg_.multiply(x);
    return lh_factor_.solve(y);
  };
  auto rayleigh = [this](const Vec& x) {
    // Rayleigh quotient in the L_H inner product: <x, Mx>_{L_H} / <x,x>_{L_H}
    // equals x^T L_G x / x^T L_H x, the generalized eigenvalue functional.
    const double num = lg_.quadratic_form(x);
    const double den = lh_.quadratic_form(x);
    return den > 0 ? num / den : 0.0;
  };

  Vec x(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = ((v * 2654435761u) % 1000003u) / 1000003.0 - 0.5;
  }
  linalg::project_out_ones(x);
  double norm = linalg::norm2(x);
  if (!(norm > 0)) {
    x.assign(static_cast<std::size_t>(n), 0.0);
    if (n > 1) {
      x[0] = 1.0;
      linalg::project_out_ones(x);
      norm = linalg::norm2(x);
    }
  }
  if (norm > 0) linalg::scale(1.0 / norm, x);

  // lambda_max via power iteration on M.
  for (int it = 0; it < kRangeIterations; ++it) {
    Vec mx = apply_m(x);
    linalg::project_out_ones(mx);
    const double mn = linalg::norm2(mx);
    if (!(mn > 1e-300)) break;
    linalg::scale(1.0 / mn, mx);
    x.swap(mx);
    ++range_matvecs_;
  }
  const double lmax = std::max(rayleigh(x), 1e-12);

  // lambda_min via power iteration on (lmax_hat * I - M) within the range.
  const double shift = lmax * kRangeSafety;
  Vec y(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    y[static_cast<std::size_t>(v)] = ((v * 40503u + 7u) % 999983u) / 999983.0 - 0.5;
  }
  linalg::project_out_ones(y);
  norm = linalg::norm2(y);
  if (norm > 0) linalg::scale(1.0 / norm, y);
  for (int it = 0; it < kRangeIterations; ++it) {
    Vec my = apply_m(y);
    for (std::size_t i = 0; i < my.size(); ++i) my[i] = shift * y[i] - my[i];
    linalg::project_out_ones(my);
    const double mn = linalg::norm2(my);
    if (!(mn > 1e-300)) break;
    linalg::scale(1.0 / mn, my);
    y.swap(my);
    ++range_matvecs_;
  }
  double lmin = rayleigh(y);
  if (!(lmin > 0)) lmin = lmax / 16.0;

  lambda_max_ = lmax * kRangeSafety;
  lambda_min_ = lmin / kRangeSafety;
  kappa_ = lambda_max_ / lambda_min_;

  if (net != nullptr) {
    // Each power-iteration matvec with L_G is one broadcast round, and so is
    // each of the two Rayleigh quotients' x^T L_G x; the L_H^+ applications
    // are internal (H is globally known).
    net->set_phase("solver/range_estimation");
    net->charge_all_to_all(range_matvecs_ + 2);
  }
}

Vec LaplacianSolver::solve(std::span<const double> b, double eps,
                           LaplacianSolveStats* stats,
                           clique::Network* net) const {
  const std::vector<Vec> bs{Vec(b.begin(), b.end())};
  std::vector<LaplacianSolveStats> st;
  std::vector<Vec> x = solve_block(bs, eps, stats != nullptr ? &st : nullptr, net);
  if (stats != nullptr) *stats = std::move(st[0]);
  return std::move(x[0]);
}

std::shared_ptr<const linalg::BackendLaplacianFactor>
LaplacianSolver::lg_factor_or_build() const {
  const std::lock_guard<std::mutex> lock(*lg_factor_mu_);
  if (lg_factor_ == nullptr) {
    lg_factor_ = std::make_shared<const linalg::BackendLaplacianFactor>(
        linalg::BackendLaplacianFactor::factor(lg_));
  }
  return lg_factor_;
}

std::vector<Vec> LaplacianSolver::solve_block(
    std::span<const Vec> bs, double eps,
    std::vector<LaplacianSolveStats>* stats, clique::Network* net) const {
  if (stats != nullptr) stats->clear();
  const std::size_t k = bs.size();
  for (const Vec& b : bs) {
    if (static_cast<int>(b.size()) != lg_.size()) {
      throw std::invalid_argument("LaplacianSolver::solve_block: size mismatch");
    }
  }
  if (!(eps > 0 && eps <= 0.5)) {
    throw std::invalid_argument("LaplacianSolver::solve_block: eps in (0, 1/2]");
  }
  if (stats != nullptr) stats->resize(k);
  if (k == 0) return {};

  // Per-column projected rhs and norm.
  std::vector<Vec> rhs;
  rhs.reserve(k);
  std::vector<double> bnorm(k);
  for (std::size_t c = 0; c < k; ++c) {
    Vec r(bs[c].begin(), bs[c].end());
    linalg::project_out_ones(r);
    bnorm[c] = std::max(linalg::norm2(r), 1e-300);
    rhs.push_back(std::move(r));
  }

  std::vector<Vec> x(k);
  std::vector<int> total_iters(k, 0);
  std::vector<int> restarts(k, 0);
  std::vector<double> rel(k, 0.0);
  std::vector<char> certified(k, 0);
  // Per column: Chebyshev iteration count of each restart level it ran, for
  // replaying the per-pass ledger counters in column order.
  std::vector<std::vector<int>> level_iters(k);
  // The solver-nan drill is a pure function of the restart level, so a
  // column sees the same drill whether it is solved alone or in a block.
  fault::FaultPlan* plan = net != nullptr ? net->fault_plan() : nullptr;

  // Restart schedule: level L uses kappa_ * 2^L.  A column still active at
  // level L restarts from zero on its own rhs — the same trajectory it would
  // take solved alone — so the block groups every column that shares a level
  // into one Chebyshev call.
  double kappa = kappa_;
  for (int level = 0; level <= kMaxRestarts; ++level) {
    std::vector<std::size_t> active;
    for (std::size_t c = 0; c < k; ++c) {
      if (certified[c] == 0) active.push_back(c);
    }
    if (active.empty()) break;

    const double lmax = lambda_max_ * (kappa / kappa_);
    const linalg::BlockApplyFn solve_b = [this,
                                          lmax](std::span<const Vec> rs) {
      std::vector<Vec> zs = lh_factor_.solve_block(rs);
      for (Vec& z : zs) linalg::scale(1.0 / lmax, z);
      return zs;
    };
    linalg::ChebyshevOptions copt;
    copt.eps = eps;
    copt.kappa = kappa;

    std::vector<Vec> brhs;
    brhs.reserve(active.size());
    for (const std::size_t c : active) brhs.push_back(rhs[c]);
    std::vector<linalg::ChebyshevStats> cstats;
    std::vector<Vec> bx =
        linalg::preconditioned_chebyshev(lg_, solve_b, brhs, copt, &cstats);

    const bool drill = plan != nullptr && plan->solver_nan_due(level);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t c = active[i];
      total_iters[c] += cstats[i].iterations;
      level_iters[c].push_back(cstats[i].iterations);
      rel[c] = cstats[i].final_residual / bnorm[c];
      // Fault drill: pretend this pass diverged so the restart guard rail
      // (and, under solver-nan@all, the exact fallback) is exercised.
      if (drill) rel[c] = std::numeric_limits<double>::quiet_NaN();
      x[c] = std::move(bx[i]);
      // eps is an energy-norm bound; the 2-norm residual check is a
      // conservative proxy used only to trigger robustness restarts.  A NaN
      // residual fails the comparison, so divergence also restarts.
      if (rel[c] <= eps) {
        certified[c] = 1;
        restarts[c] = level;
      }
    }
    kappa *= 2.0;
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (certified[c] == 0) restarts[c] = kMaxRestarts + 1;
    linalg::project_out_ones(x[c]);
  }

  std::vector<char> fell(k, 0);
  for (std::size_t c = 0; c < k; ++c) {
    bool healthy = rel[c] <= eps;
    for (std::size_t i = 0; healthy && i < x[c].size(); ++i) {
      if (!std::isfinite(x[c][i])) healthy = false;
    }
    if (healthy) continue;
    // Guard rail: every Chebyshev budget was exhausted without a certified
    // residual (or the iterate went non-finite).  Degrade to the exact
    // direct factorization of L_G — slower, but always correct.
    fell[c] = 1;
    const std::shared_ptr<const linalg::BackendLaplacianFactor> lg_factor =
        lg_factor_or_build();
    x[c] = lg_factor->solve(rhs[c]);
    linalg::project_out_ones(x[c]);
    Vec res = lg_.multiply(x[c]);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] -= rhs[c][i];
    rel[c] = linalg::norm2(res) / bnorm[c];
    if (plan != nullptr) ++plan->stats().solver_fallbacks;
  }

  if (net != nullptr) {
    // Replay the per-column charging sequence in column order: the Network's
    // op log, phase ledger, round/word totals, ledger counters, and any fault
    // plan's recovery draws end up byte-equal to k one-column solves.  One
    // broadcast round per Chebyshev iteration (the matvec by L_G); vector
    // updates and the L_H solve are internal.
    obs::RoundLedger* tracer = net->tracer();
    const auto nn = static_cast<std::int64_t>(net->size());
    for (std::size_t c = 0; c < k; ++c) {
      for (const int iters : level_iters[c]) {
        obs::count(tracer, "chebyshev_iterations", iters);
      }
      net->set_phase("solver/chebyshev");
      net->charge_all_to_all(total_iters[c] + 1);
      if (fell[c] != 0) {
        // The exact solve is centralized: gather b to a coordinator and
        // broadcast x back (2 n-word vectors through one node's links).  In
        // the broadcast model gathering b is one round (everyone broadcasts
        // its entry) and sending x back is n sequential broadcasts.
        net->set_phase("solver/fallback");
        if (net->routing_mode() == clique::RoutingMode::kBroadcast) {
          net->charge(nn + 1, 2 * nn);
        } else {
          net->charge(4, 2 * nn);
        }
      }
    }
  }

  if (stats != nullptr) {
    for (std::size_t c = 0; c < k; ++c) {
      LaplacianSolveStats& st = (*stats)[c];
      st.exact_fallback = fell[c] != 0;
      st.chebyshev_iterations = total_iters[c];
      st.restarts = restarts[c];
      // kappa after `restarts` doublings of the base.
      double kap = kappa_;
      for (int r = 0; r < restarts[c]; ++r) kap *= 2.0;
      st.kappa = kap;
      st.relative_residual = rel[c];
      st.sparsify_stats = sparsify_stats_;
      st.sparsifier_edges = h_.num_edges();
      st.factor = lh_factor_.stats();
    }
  }
  return x;
}

}  // namespace lapclique::solver
