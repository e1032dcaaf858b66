#include "flow/mincost_ipm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "euler/flow_round.hpp"
#include "flow/distributed_sssp.hpp"
#include "flow/ssp_mincost.hpp"

namespace lapclique::flow {

using graph::Digraph;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Algorithm 7 line 13: eta = 1/14, which makes the m^{1/2 - eta} progress
/// bound the m^{3/7} of Theorem 1.3.
constexpr double kEta = 1.0 / 14.0;
/// eps of the calibration solve, whose Theorem 1.1 rounds each electrical
/// solve is charged.
constexpr double kSolveEps = 1e-10;

/// The lifted instance: G1 = original arcs + auxiliary feasibility arcs,
/// then the bipartite b-matching encoding (Algorithm 7).
struct Lifted {
  Digraph g1;                       ///< original + aux arcs (unit capacity)
  std::vector<char> is_aux;         ///< per G1 arc
  std::vector<std::int64_t> sigma_my;  ///< demands on G1 vertices (inflow-positive)
  int v_aux = -1;

  // Bipartite state: P = V(G1), Q = arcs of G1.  Edge 2q is the tail side
  // (cost c_q, "arc used"), edge 2q+1 the head side (cost 0, "arc unused").
  int np = 0;
  int nq = 0;
  std::vector<double> f;   ///< per bipartite edge
  std::vector<double> s;   ///< slacks
  std::vector<double> nu;  ///< central-path weights
  std::vector<double> y;   ///< potentials: P vertices then Q vertices
  std::vector<std::int64_t> b;  ///< demands: P then Q
  double mu_hat = 0;
  double c_inf = 1;

  [[nodiscard]] int bip_vertices() const { return np + nq; }
  [[nodiscard]] int p_of_edge(int e) const {
    const int q = e / 2;
    return e % 2 == 0 ? g1.arc(q).from : g1.arc(q).to;
  }
  [[nodiscard]] int q_of_edge(int e) const { return np + e / 2; }
  [[nodiscard]] double cost_of_edge(int e) const {
    return e % 2 == 0 ? static_cast<double>(g1.arc(e / 2).cost) : 0.0;
  }
};

/// Whether sigma sums to zero, summed without overflow.  A prefix sum that
/// would overflow counts as nonzero: an entry that large exceeds every
/// vertex's degree, so no flow meets such a sigma anyway.
bool sums_to_zero(std::span<const std::int64_t> sigma) {
  std::int64_t total = 0;
  for (const std::int64_t d : sigma) {
    if (d > 0 ? total > std::numeric_limits<std::int64_t>::max() - d
              : total < std::numeric_limits<std::int64_t>::min() - d) {
      return false;
    }
    total += d;
  }
  return total == 0;
}

Lifted build_lifted(const Digraph& g, std::span<const std::int64_t> sigma) {
  Lifted lf;
  const int n = g.num_vertices();
  lf.v_aux = n;
  lf.g1 = Digraph(n + 1);
  std::int64_t c1 = 0;
  for (int a = 0; a < g.num_arcs(); ++a) c1 += std::abs(g.arc(a).cost);
  c1 = std::max<std::int64_t>(c1, 1);

  for (int a = 0; a < g.num_arcs(); ++a) {
    lf.g1.add_arc(g.arc(a).from, g.arc(a).to, 1, g.arc(a).cost);
    lf.is_aux.push_back(0);
  }
  // Algorithm 7 lines 2-6 with sigma_cmsv = -sigma (outflow-positive there).
  // 2*t(v) = 2*sigma_cmsv(v) + deg_in - deg_out must be evened out by
  // parallel aux arcs of cost ||c||_1.
  for (int v = 0; v < n; ++v) {
    const std::int64_t t2 = -2 * sigma[static_cast<std::size_t>(v)] +
                            g.in_degree(v) - g.out_degree(v);
    if (t2 > 0) {
      for (std::int64_t k = 0; k < t2; ++k) {
        lf.g1.add_arc(v, lf.v_aux, 1, c1);
        lf.is_aux.push_back(1);
      }
    } else if (t2 < 0) {
      for (std::int64_t k = 0; k < -t2; ++k) {
        lf.g1.add_arc(lf.v_aux, v, 1, c1);
        lf.is_aux.push_back(1);
      }
    }
  }
  lf.sigma_my.assign(sigma.begin(), sigma.end());
  lf.sigma_my.push_back(0);  // v_aux wants zero excess; optima leave it idle

  // Bipartite initialization (Algorithm 7 lines 8-13).
  lf.np = lf.g1.num_vertices();
  lf.nq = lf.g1.num_arcs();
  const int me = 2 * lf.nq;
  lf.f.assign(static_cast<std::size_t>(me), 0.5);
  lf.b.assign(static_cast<std::size_t>(lf.np + lf.nq), 0);
  for (int u = 0; u < lf.np; ++u) {
    // b(u) = sigma_cmsv(u) + deg_in^{G1}(u) = -sigma_my(u) + deg_in.
    lf.b[static_cast<std::size_t>(u)] =
        -lf.sigma_my[static_cast<std::size_t>(u)] + lf.g1.in_degree(u);
  }
  for (int q = 0; q < lf.nq; ++q) lf.b[static_cast<std::size_t>(lf.np + q)] = 1;

  lf.c_inf = 1;
  for (int a = 0; a < lf.g1.num_arcs(); ++a) {
    lf.c_inf = std::max(lf.c_inf, static_cast<double>(std::abs(lf.g1.arc(a).cost)));
  }
  lf.y.assign(static_cast<std::size_t>(lf.np + lf.nq), 0.0);
  for (int u = 0; u < lf.np; ++u) lf.y[static_cast<std::size_t>(u)] = lf.c_inf;
  lf.s.assign(static_cast<std::size_t>(me), 0.0);
  lf.nu.assign(static_cast<std::size_t>(me), 0.0);
  for (int e = 0; e < me; ++e) {
    const int u = lf.p_of_edge(e);
    const int qv = lf.q_of_edge(e);
    lf.s[static_cast<std::size_t>(e)] = lf.cost_of_edge(e) +
                                        lf.y[static_cast<std::size_t>(u)] -
                                        lf.y[static_cast<std::size_t>(qv)];
    lf.nu[static_cast<std::size_t>(e)] =
        lf.s[static_cast<std::size_t>(e)] / (2.0 * lf.c_inf);
  }
  lf.mu_hat = lf.c_inf;
  return lf;
}

/// One electrical solve over the bipartite graph + the v0 preconditioning
/// star (Algorithm 6 lines 2, 4-5).
struct BipartiteElectrical {
  // Edge list: bipartite edges first, then np star edges (v0 = np+nq).
  std::vector<ElectricalEdge> edges;
  int nv = 0;
};

BipartiteElectrical make_electrical(const Lifted& lf,
                                    const std::vector<double>& resist_bip) {
  BipartiteElectrical be;
  be.nv = lf.np + lf.nq + 1;
  const int v0 = lf.np + lf.nq;
  be.edges.reserve(resist_bip.size() + static_cast<std::size_t>(lf.np));
  for (std::size_t e = 0; e < resist_bip.size(); ++e) {
    be.edges.push_back(ElectricalEdge{lf.p_of_edge(static_cast<int>(e)),
                                      lf.q_of_edge(static_cast<int>(e)),
                                      resist_bip[e]});
  }
  // a[u] sums nu[e] + nu[e ^ 1] over u's bipartite edges e, in ascending e.
  std::vector<double> a(static_cast<std::size_t>(lf.np), 0.0);
  for (int e = 0; e < 2 * lf.nq; ++e) {
    a[static_cast<std::size_t>(lf.p_of_edge(e))] +=
        lf.nu[static_cast<std::size_t>(e)] + lf.nu[static_cast<std::size_t>(e ^ 1)];
  }
  const auto m = static_cast<double>(resist_bip.size());
  const double scale = std::pow(m, 1.0 + 2.0 * kEta);
  for (int u = 0; u < lf.np; ++u) {
    const double r = scale / std::max(a[static_cast<std::size_t>(u)], 1e-9);
    be.edges.push_back(ElectricalEdge{v0, u, r});
  }
  return be;
}

// --- checkpoint/resume support (src/ckpt) ----------------------------------

constexpr const char* kCkptAlgo = "mincost";

/// Resumable mid-loop state of the Theorem 1.3 IPM beyond the Lifted's own
/// vectors: the baseline accounting, the progress counter the Perturbation
/// guard reads, and the cached congestion vector.
struct IpmLoopState {
  std::int64_t rounds_before = 0;
  std::int64_t words_before = 0;
  std::int64_t total_progress = 0;
  std::vector<double> rho;
};

/// G1's arc keys as the payload carries them.  Resume rebuilds the identical
/// G1 via build_lifted — charge-free and deterministic — and only checks the
/// keys' sizes against it.
struct ArcKeys {
  std::vector<std::int64_t> from;
  std::vector<std::int64_t> to;
  std::vector<std::int64_t> cost;
  std::vector<std::int64_t> aux;
};

/// The payload layout, run by both coders: loop state plus the lift's arc
/// keys and central-path vectors.
template <typename Coder>
void state_fields(Coder& c, ckpt::Field<Coder, Lifted>& lf,
                  ckpt::Field<Coder, IpmLoopState>& st,
                  ckpt::Field<Coder, MinCostIpmReport>& rep,
                  ckpt::Field<Coder, ArcKeys>& keys) {
  c.i64(st.rounds_before);
  c.i64(st.words_before);
  c.i64(st.total_progress);
  c.i64(rep.rounds_per_solve);
  c.int64(rep.ipm_iterations);
  c.int64(rep.perturbations);
  c.int64(rep.laplacian_solves);
  c.f64(lf.mu_hat);
  c.i64_vec(keys.from);
  c.i64_vec(keys.to);
  c.i64_vec(keys.cost);
  c.i64_vec(keys.aux);
  c.f64_vec(lf.f);
  c.f64_vec(lf.s);
  c.f64_vec(lf.nu);
  c.f64_vec(lf.y);
  c.f64_vec(st.rho);
}

std::string encode_ipm_state(const Lifted& lf, const IpmLoopState& st,
                             const MinCostIpmReport& rep) {
  ArcKeys keys;
  for (int q = 0; q < lf.nq; ++q) {
    const graph::Arc& a = lf.g1.arc(q);
    keys.from.push_back(a.from);
    keys.to.push_back(a.to);
    keys.cost.push_back(a.cost);
    keys.aux.push_back(lf.is_aux[static_cast<std::size_t>(q)]);
  }
  ckpt::Encoder e;
  state_fields(e, lf, st, rep, keys);
  return e.take();
}

/// Decodes onto `lf`, which build_lifted made for this instance, and rejects
/// a payload whose lift does not match it.
void decode_ipm_state(const ckpt::Checkpoint& ck, Lifted& lf,
                      IpmLoopState& st, MinCostIpmReport& rep) {
  const std::string source =
      ck.source.empty() ? "<mincost checkpoint>" : ck.source;
  ckpt::Decoder d(source, ck.state);
  ArcKeys keys;
  state_fields(d, lf, st, rep, keys);
  const std::size_t nq = keys.from.size();
  if (keys.to.size() != nq || keys.cost.size() != nq || keys.aux.size() != nq) {
    d.fail("inconsistent G1 arc-key vectors in min-cost IPM state");
  }
  if (lf.f.size() != 2 * nq || lf.s.size() != 2 * nq ||
      lf.nu.size() != 2 * nq || st.rho.size() != 2 * nq) {
    d.fail("bipartite vector sizes do not match the G1 arc count");
  }
  if (!d.done()) d.fail("trailing junk after min-cost IPM state");
  if (static_cast<int>(nq) != lf.nq ||
      lf.y.size() != static_cast<std::size_t>(lf.np + lf.nq)) {
    throw ckpt::CheckpointError(
        source, 12, "checkpointed lift does not match the rebuilt instance");
  }
}

}  // namespace

MinCostIpmReport min_cost_flow_clique(const Digraph& g,
                                      std::span<const std::int64_t> sigma,
                                      clique::Network& net,
                                      const MinCostIpmOptions& opt) {
  if (static_cast<int>(sigma.size()) != g.num_vertices()) {
    throw std::invalid_argument("min_cost_flow_clique: sigma size mismatch");
  }
  if (!sums_to_zero(sigma)) {
    throw std::invalid_argument("min_cost_flow_clique: demands must sum to zero");
  }
  for (int a = 0; a < g.num_arcs(); ++a) {
    if (g.arc(a).cap != 1) {
      throw std::invalid_argument("min_cost_flow_clique: capacities must be 1");
    }
  }
  MinCostIpmReport rep;
  rep.flow.assign(static_cast<std::size_t>(g.num_arcs()), 0);

  // With unit capacities a vertex's excess lies in [-out_degree, in_degree].
  // A demand outside that range is infeasible, and the lift would add one
  // auxiliary arc per unit of it, so answer before building it.
  for (int v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t d = sigma[static_cast<std::size_t>(v)];
    if (d < -g.out_degree(v) || d > g.in_degree(v)) {
      net.set_phase("mincost/setup");
      const std::int64_t rounds_before = net.rounds();
      const std::int64_t words_before = net.words_sent();
      net.charge_announcement();
      rep.run.capture(net, rounds_before, words_before);
      return rep;
    }
  }

  const ckpt::CheckpointHooks& hooks = opt.checkpoint;
  const std::uint64_t ghash = hooks.any() ? ckpt::graph_hash(g) : 0;
  Lifted lf = build_lifted(g, sigma);
  const int me = 2 * lf.nq;
  const auto m = static_cast<double>(std::max(me, 2));

  IpmLoopState st;
  st.rho.assign(static_cast<std::size_t>(me), 0.0);
  std::int64_t t0 = 0;

  if (hooks.resume != nullptr) {
    // Bit-identical continuation (same discipline as the max-flow IPM):
    // verify the header, decode the loop state onto the lift, restore the
    // run container (accounting + attached ledger + fault-plan counters) —
    // all before a single charge or phase switch.  In particular set_phase
    // must NOT run here: the restored ledger already holds the open
    // checkpointed phase span, and re-switching would bump its visit count.
    // build_lifted above is charge-free and deterministic, so the rebuilt G1
    // is the one the checkpoint describes; the decoded sizes are checked
    // against it.
    ckpt::resume_run(*hooks.resume, kCkptAlgo, ghash, net,
                     [&] { decode_ipm_state(*hooks.resume, lf, st, rep); });
    t0 = hooks.resume->batch;
  } else {
    net.set_phase("mincost/setup");
    st.rounds_before = net.rounds();
    st.words_before = net.words_sent();
    net.charge_announcement();

    // Calibrate the Theorem 1.1 round charge at this topology.
    net.set_phase("mincost/calibration");
    std::vector<double> r0(static_cast<std::size_t>(me));
    for (int e = 0; e < me; ++e) {
      r0[static_cast<std::size_t>(e)] = lf.nu[static_cast<std::size_t>(e)] /
                                        (lf.f[static_cast<std::size_t>(e)] *
                                         lf.f[static_cast<std::size_t>(e)]);
    }
    const BipartiteElectrical be = make_electrical(lf, r0);
    rep.rounds_per_solve =
        calibrate_solve_rounds(be.nv, be.edges, kSolveEps);
    // The calibration solve itself (broadcast rounds, like every solve).
    net.charge_all_to_all(rep.rounds_per_solve);
    net.set_phase("mincost/ipm");
  }

  // Demand vector for the electrical solves: the bipartite flow goes P -> Q,
  // so P vertices are producers (-b) and Q vertices consumers (+b).
  linalg::Vec chi(static_cast<std::size_t>(lf.np + lf.nq + 1), 0.0);
  for (int u = 0; u < lf.np; ++u) {
    chi[static_cast<std::size_t>(u)] = -static_cast<double>(lf.b[static_cast<std::size_t>(u)]);
  }
  for (int q = 0; q < lf.nq; ++q) {
    chi[static_cast<std::size_t>(lf.np + q)] =
        static_cast<double>(lf.b[static_cast<std::size_t>(lf.np + q)]);
  }

  // Main loop (Algorithm 6) with the CMSV budget and early exit on mu_hat.
  fault::FaultPlan* plan = net.fault_plan();
  const std::int64_t rounds_before = st.rounds_before;
  const std::int64_t words_before = st.words_before;
  // One electrical solver per run: the bipartite topology plus the v0 star
  // never changes, so every solve after the first refactors it for the new
  // resistances.  A resumed run analyzes at its first solve.
  //
  // A slack that overflows pushes a resistance to +inf, whose conductance 0
  // the solver rejects.  Such a step has diverged as surely as a non-finite
  // iterate, so `factor` returns the reason to degrade instead of factoring.
  ElectricalSolver solver;
  const auto factor = [&](BipartiteElectrical be) -> const char* {
    for (const ElectricalEdge& e : be.edges) {
      if (!(e.resistance > 0) || !(1.0 / e.resistance > 0)) {
        return "non-positive or infinite electrical resistance";
      }
    }
    solver.factor(be.nv, std::move(be.edges));
    return nullptr;
  };
  // Every Progress step factors the same bipartite topology, so the most
  // recent factor's backend choice is also every factor's.
  const auto record_numerics = [&] {
    if (rep.laplacian_solves > 0) {
      rep.run.numerics = linalg::to_string(solver.factor_stats().chosen);
      rep.run.factor_fill = solver.factor_stats().fill_nnz;
    }
  };
  // Guard rail: a diverging electrical-flow step leaves NaN/inf in the
  // central-path state.  Detect it after every Progress step and degrade to
  // the exact sequential SSP baseline.
  const auto divergence = [&]() -> const char* {
    if (plan != nullptr && plan->ipm_nan_due(rep.ipm_iterations) && me > 0) {
      // Fault drill: poison the state exactly like an overflowing solve.
      lf.f[0] = std::numeric_limits<double>::quiet_NaN();
    }
    for (int e = 0; e < me; ++e) {
      if (!std::isfinite(lf.f[static_cast<std::size_t>(e)]) ||
          !std::isfinite(lf.s[static_cast<std::size_t>(e)])) {
        return "non-finite flow/slack in IPM state";
      }
    }
    for (double yv : lf.y) {
      if (!std::isfinite(yv)) return "non-finite potential in IPM state";
    }
    if (!std::isfinite(lf.mu_hat)) return "non-finite central-path parameter";
    return nullptr;
  };
  const auto degrade = [&](const char* reason) {
    rep.run.used_fallback = true;
    rep.run.fallback_reason = reason;
    if (plan != nullptr) ++plan->stats().ipm_fallbacks;
    net.set_phase("mincost/fallback");
    // The exact baseline is centralized: gather the arc list (4 words per
    // arc) plus the demand vector to a coordinator, solve locally,
    // broadcast feasibility and cost.
    net.charge_gossip(4 * static_cast<std::int64_t>(g.num_arcs()) +
                      static_cast<std::int64_t>(g.num_vertices()));
    const MinCostFlowResult exact = ssp_min_cost_flow(g, sigma);
    rep.feasible = exact.feasible;
    rep.cost = exact.feasible ? exact.cost : 0;
    if (exact.feasible) rep.flow = exact.flow;
    rep.run.capture(net, rounds_before, words_before);
    record_numerics();
    return rep;
  };
  const double logw = std::log2(lf.c_inf + 2.0);
  const double c_rho = 400.0 * std::sqrt(3.0) * std::cbrt(std::max(logw, 1.0));
  const double c_t = 3.0 * c_rho * std::max(logw, 1.0);
  const std::int64_t outer = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(
             opt.iteration_scale * c_t * std::pow(m, 0.5 - 3.0 * kEta))));
  const std::int64_t inner = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::pow(m, 2.0 * kEta))));
  const double rho_threshold = c_rho * std::pow(m, 0.5 - kEta);
  const double mu_exit = 1.0 / (8.0 * m * lf.c_inf);

  std::vector<double>& rho = st.rho;
  std::int64_t& total_progress = st.total_progress;
  const std::int64_t total_iters =
      outer > std::numeric_limits<std::int64_t>::max() / inner
          ? std::numeric_limits<std::int64_t>::max()
          : outer * inner;
  const std::function<std::string()> encode = [&] {
    return encode_ipm_state(lf, st, rep);
  };

  if (hooks.resume == nullptr) {
    // Check once at iteration 0 so a poisoned initial point (or the ipm-nan@0
    // drill) degrades before any Progress step, mirroring the max-flow IPM.
    if (const char* reason = divergence()) return degrade(reason);
    // Boundary 0: the state after calibration, before any Progress step, so
    // even a run preempted inside its very first batch resumes instead of
    // restarting.  Boundaries double as deadline-check points for the serve
    // frontend, checked even when no checkpoint hooks are attached.
    ckpt::boundary(hooks, net, 0, kCkptAlgo, ghash, encode);
  }

  // The historical outer x inner nesting is flattened to one counter t so a
  // checkpoint boundary is a single batch index; neither loop variable was
  // read by the body, so the iteration sequence is unchanged.
  bool done = false;
  for (std::int64_t t = t0; t < total_iters && !done; ++t) {
    {
      // Perturbation while the nu-weighted congestion is too large (Alg 8).
      // Doubling nu_e doubles the squeezed edge's resistance, so the next
      // electrical flow (hence rho) on it roughly halves; we fold that decay
      // into the cached rho so the while-loop terminates without an extra
      // solve (the paper charges 1 round per Perturbation, no solve).
      for (int guard = 0; total_progress > 0 && guard < 64; ++guard) {
        double rho_nu3 = 0;
        for (int e = 0; e < me; ++e) {
          rho_nu3 += lf.nu[static_cast<std::size_t>(e)] *
                     std::pow(std::abs(rho[static_cast<std::size_t>(e)]), 3.0);
        }
        rho_nu3 = std::cbrt(rho_nu3);
        if (rho_nu3 <= rho_threshold) break;
        ++rep.perturbations;
        for (int q = 0; q < lf.nq; ++q) {
          const int e0 = 2 * q;
          const int e1 = 2 * q + 1;
          // e = the squeezed side (smaller f), ebar = its partner.
          const int e = lf.f[static_cast<std::size_t>(e0)] <=
                                lf.f[static_cast<std::size_t>(e1)]
                            ? e0
                            : e1;
          const int ebar = e ^ 1;
          const double s_old = lf.s[static_cast<std::size_t>(e)];
          // y_v -= s_e raises both slacks at v by s_e.
          lf.y[static_cast<std::size_t>(lf.np + q)] -= s_old;
          lf.s[static_cast<std::size_t>(e)] += s_old;
          lf.s[static_cast<std::size_t>(ebar)] += s_old;
          lf.nu[static_cast<std::size_t>(e)] *= 2.0;
          lf.nu[static_cast<std::size_t>(ebar)] +=
              lf.nu[static_cast<std::size_t>(e)] * lf.f[static_cast<std::size_t>(e)] /
              std::max(lf.f[static_cast<std::size_t>(ebar)], 1e-12);
          rho[static_cast<std::size_t>(e)] /= 2.0;
        }
        net.charge_announcement();  // perturbation announcement broadcast
      }

      // Progress (Algorithm 9): two Laplacian solves.
      ++total_progress;
      ++rep.ipm_iterations;
      std::vector<double> r(static_cast<std::size_t>(me));
      for (int e = 0; e < me; ++e) {
        r[static_cast<std::size_t>(e)] =
            lf.nu[static_cast<std::size_t>(e)] /
            std::max(lf.f[static_cast<std::size_t>(e)] *
                         lf.f[static_cast<std::size_t>(e)],
                     1e-18);
      }
      if (const char* reason = factor(make_electrical(lf, r))) return degrade(reason);
      ++rep.laplacian_solves;
      const linalg::Vec phi = solver.potentials(chi, net, rep.rounds_per_solve);
      // Bipartite edges come first, so entry e < me is edge e's flow.
      const std::vector<double> ftilde = solver.induced_flow(phi);
      for (int e = 0; e < me; ++e) {
        rho[static_cast<std::size_t>(e)] =
            std::abs(ftilde[static_cast<std::size_t>(e)]) /
            std::max(lf.f[static_cast<std::size_t>(e)], 1e-12);
      }
      double rho_nu4 = 0;
      for (int e = 0; e < me; ++e) {
        rho_nu4 += lf.nu[static_cast<std::size_t>(e)] *
                   std::pow(rho[static_cast<std::size_t>(e)], 4.0);
      }
      rho_nu4 = std::pow(rho_nu4, 0.25);
      const double delta = std::min(1.0 / (8.0 * std::max(rho_nu4, 1e-9)), 1.0 / 8.0);

      std::vector<double> fprime(static_cast<std::size_t>(me));
      std::vector<double> sprime(static_cast<std::size_t>(me));
      for (int e = 0; e < me; ++e) {
        fprime[static_cast<std::size_t>(e)] =
            (1.0 - delta) * lf.f[static_cast<std::size_t>(e)] +
            delta * ftilde[static_cast<std::size_t>(e)];
        const double dphi = phi[static_cast<std::size_t>(lf.q_of_edge(e))] -
                            phi[static_cast<std::size_t>(lf.p_of_edge(e))];
        sprime[static_cast<std::size_t>(e)] =
            lf.s[static_cast<std::size_t>(e)] - delta / (1.0 - delta) * dphi;
      }
      std::vector<double> fsharp(static_cast<std::size_t>(me));
      for (int e = 0; e < me; ++e) {
        fsharp[static_cast<std::size_t>(e)] =
            (1.0 - delta) * lf.f[static_cast<std::size_t>(e)] *
            lf.s[static_cast<std::size_t>(e)] /
            std::max(std::abs(sprime[static_cast<std::size_t>(e)]), 1e-12) *
            (sprime[static_cast<std::size_t>(e)] >= 0 ? 1.0 : -1.0);
      }
      // Residue of f' - f# becomes the second solve's demand.
      linalg::Vec chi2(chi.size(), 0.0);
      for (int e = 0; e < me; ++e) {
        const double d = fprime[static_cast<std::size_t>(e)] -
                         fsharp[static_cast<std::size_t>(e)];
        chi2[static_cast<std::size_t>(lf.q_of_edge(e))] += d;
        chi2[static_cast<std::size_t>(lf.p_of_edge(e))] -= d;
      }
      std::vector<double> r2(static_cast<std::size_t>(me));
      for (int e = 0; e < me; ++e) {
        r2[static_cast<std::size_t>(e)] =
            sprime[static_cast<std::size_t>(e)] * sprime[static_cast<std::size_t>(e)] /
            std::max((1.0 - delta) * lf.f[static_cast<std::size_t>(e)] *
                         lf.s[static_cast<std::size_t>(e)],
                     1e-18);
      }
      if (const char* reason = factor(make_electrical(lf, r2))) return degrade(reason);
      ++rep.laplacian_solves;
      const linalg::Vec phi2 = solver.potentials(chi2, net, rep.rounds_per_solve);
      const std::vector<double> ftilde2 = solver.induced_flow(phi2);
      for (int e = 0; e < me; ++e) {
        const double ft2 = ftilde2[static_cast<std::size_t>(e)];
        double fnew = fsharp[static_cast<std::size_t>(e)] + ft2;
        // Stay strictly inside (0,1) x (partner) — the IPM's interior.
        fnew = std::clamp(fnew, 1e-9, 1.0 - 1e-9);
        const double snew =
            sprime[static_cast<std::size_t>(e)] -
            sprime[static_cast<std::size_t>(e)] * ft2 /
                std::max(std::abs(fsharp[static_cast<std::size_t>(e)]), 1e-12);
        lf.f[static_cast<std::size_t>(e)] = fnew;
        lf.s[static_cast<std::size_t>(e)] = std::max(snew, 1e-12);
      }
      lf.mu_hat *= (1.0 - delta);
      {
        net.charge_all_to_all(2);  // norm allreduces
      }
      if (divergence() != nullptr) done = true;
      if (lf.mu_hat < mu_exit) done = true;
      if (total_progress >= opt.max_iterations) done = true;
    }
    // Boundary t+1: the state a continuation entering the loop at t+1 needs —
    // written before the preempt check inside ckpt::boundary, so a preempted
    // run always leaves the snapshot it will resume from.  A finished iterate
    // (done) writes no boundary: resume always re-enters the loop live.
    if (!done) ckpt::boundary(hooks, net, t + 1, kCkptAlgo, ghash, encode);
  }
  if (const char* reason = divergence()) return degrade(reason);

  // Repairing (Algorithm 10): round to an integral matching, meet the
  // remaining demands with shortest augmenting paths, then cancel negative
  // cycles so the result is certifiably optimal.
  net.set_phase("mincost/rounding");
  {
    // Normalize per Q vertex so f_e + f_ebar = 1, then snap to the grid and
    // rebuild the s/t closure exactly (so conservation is exact).
    int k = 2;
    while ((1 << k) < 4 * me) ++k;
    const double grid = 1.0 / static_cast<double>(1 << k);
    std::vector<std::int64_t> units(static_cast<std::size_t>(me));
    for (int q = 0; q < lf.nq; ++q) {
      const double tot = lf.f[static_cast<std::size_t>(2 * q)] +
                         lf.f[static_cast<std::size_t>(2 * q + 1)];
      const double f0 = lf.f[static_cast<std::size_t>(2 * q)] / std::max(tot, 1e-12);
      const auto u0 = static_cast<std::int64_t>(std::llround(f0 / grid));
      units[static_cast<std::size_t>(2 * q)] = u0;
      units[static_cast<std::size_t>(2 * q + 1)] =
          static_cast<std::int64_t>(std::llround(1.0 / grid)) - u0;
    }
    // Fractional flow on the rounding digraph s -> P -> Q -> t (rg_costed
    // below, whose arcs are in the same order).
    const int s_node = lf.np + lf.nq;
    const int t_node = lf.np + lf.nq + 1;
    graph::Flow rf;
    std::vector<std::int64_t> p_out(static_cast<std::size_t>(lf.np), 0);
    for (int e = 0; e < me; ++e) {
      rf.push_back(static_cast<double>(units[static_cast<std::size_t>(e)]) * grid);
      p_out[static_cast<std::size_t>(lf.p_of_edge(e))] +=
          units[static_cast<std::size_t>(e)];
    }
    for (int u = 0; u < lf.np; ++u) {
      rf.push_back(static_cast<double>(p_out[static_cast<std::size_t>(u)]) * grid);
    }
    for (int q = 0; q < lf.nq; ++q) rf.push_back(1.0);
    euler::FlowRoundingOptions ropt;
    ropt.delta = grid;
    ropt.use_costs = true;
    // The bipartite lift's Q vertices (one per arc) are virtual: each is
    // simulated by its arc's tail node, so rounding runs on a lifted network
    // whose rounds are charged to the real one.
    clique::Network lifted_net(lf.np + lf.nq + 2);
    lifted_net.set_routing_mode(net.routing_mode());
    // Attach the real matching costs so the cost-aware rule applies.
    Digraph rg_costed(lf.np + lf.nq + 2);
    for (int e = 0; e < me; ++e) {
      rg_costed.add_arc(lf.p_of_edge(e), lf.q_of_edge(e), 2,
                        static_cast<std::int64_t>(lf.cost_of_edge(e)));
    }
    for (int u = 0; u < lf.np; ++u) {
      rg_costed.add_arc(s_node, u,
                        std::max<std::int64_t>(lf.b[static_cast<std::size_t>(u)], 1) + 2, 0);
    }
    for (int q = 0; q < lf.nq; ++q) rg_costed.add_arc(lf.np + q, t_node, 3, 0);
    const euler::FlowRoundingResult rr =
        euler::round_flow(rg_costed, rf, s_node, t_node, lifted_net, ropt);
    net.charge(lifted_net.rounds(), lifted_net.words_sent());
    rep.rounding_phases = rr.phases;

    // Matched side per arc of G1.
    for (int q = 0; q < lf.nq; ++q) {
      const double tail = rr.flow[static_cast<std::size_t>(2 * q)];
      // tail side matched => arc used.
      lf.f[static_cast<std::size_t>(2 * q)] = tail >= 0.5 ? 1.0 : 0.0;
      lf.f[static_cast<std::size_t>(2 * q + 1)] = tail >= 0.5 ? 0.0 : 1.0;
    }
  }

  // Finishing on G1: meet demands exactly with min-cost augmenting paths.
  net.set_phase("mincost/finishing");
  std::vector<std::int64_t> f1(static_cast<std::size_t>(lf.g1.num_arcs()), 0);
  for (int q = 0; q < lf.nq; ++q) {
    f1[static_cast<std::size_t>(q)] =
        lf.f[static_cast<std::size_t>(2 * q)] >= 0.5 ? 1 : 0;
  }
  auto excess_of = [&lf, &f1](int v) {
    std::int64_t ex = 0;
    for (int a : lf.g1.in_arcs(v)) ex += f1[static_cast<std::size_t>(a)];
    for (int a : lf.g1.out_arcs(v)) ex -= f1[static_cast<std::size_t>(a)];
    return ex;
  };

  const int n1 = lf.g1.num_vertices();

  // Residual network snapshot: forward arcs for unused g1 arcs, backward
  // (negative-cost) arcs for used ones.
  struct Residual {
    Digraph rg;
    std::vector<double> len;
    std::vector<std::pair<int, bool>> arc_map;  // (g1 arc, forward?)
  };
  auto build_residual = [&lf, &f1, n1]() {
    Residual r;
    r.rg = Digraph(n1);
    for (int a = 0; a < lf.g1.num_arcs(); ++a) {
      const graph::Arc& arc = lf.g1.arc(a);
      if (f1[static_cast<std::size_t>(a)] == 0) {
        r.rg.add_arc(arc.from, arc.to, 1, 0);
        r.len.push_back(static_cast<double>(arc.cost));
        r.arc_map.emplace_back(a, true);
      } else {
        r.rg.add_arc(arc.to, arc.from, 1, 0);
        r.len.push_back(-static_cast<double>(arc.cost));
        r.arc_map.emplace_back(a, false);
      }
    }
    return r;
  };

  // Cancel every negative residual cycle (rounding is value-preserving but
  // not cost-optimal, so cycles may exist both before and between the
  // augmentations below).  Charged at the CKKL detection bound per pass.
  auto cancel_negative_cycles = [&]() {
    while (true) {
      const Residual r = build_residual();
      std::vector<double> dist(static_cast<std::size_t>(n1), 0.0);
      std::vector<int> parent(static_cast<std::size_t>(n1), -1);
      int relaxed_vertex = -1;
      for (int it = 0; it < n1; ++it) {
        relaxed_vertex = -1;
        for (int ra = 0; ra < r.rg.num_arcs(); ++ra) {
          const graph::Arc& arc = r.rg.arc(ra);
          if (dist[static_cast<std::size_t>(arc.from)] +
                  r.len[static_cast<std::size_t>(ra)] <
              dist[static_cast<std::size_t>(arc.to)] - 1e-9) {
            dist[static_cast<std::size_t>(arc.to)] =
                dist[static_cast<std::size_t>(arc.from)] +
                r.len[static_cast<std::size_t>(ra)];
            parent[static_cast<std::size_t>(arc.to)] = ra;
            relaxed_vertex = arc.to;
          }
        }
        if (relaxed_vertex == -1) break;
      }
      net.charge(static_cast<std::int64_t>(
          std::ceil(std::pow(std::max(2, n1), kCkklExponent))));
      if (relaxed_vertex == -1) return;
      // Walk back n1 steps to land on the cycle, then flip it.
      int v = relaxed_vertex;
      for (int i = 0; i < n1; ++i) {
        v = r.rg.arc(parent[static_cast<std::size_t>(v)]).from;
      }
      ++rep.negative_cycles_cancelled;
      const int start = v;
      int cur = v;
      do {
        const int ra = parent[static_cast<std::size_t>(cur)];
        const auto [a, fwd] = r.arc_map[static_cast<std::size_t>(ra)];
        f1[static_cast<std::size_t>(a)] = fwd ? 1 : 0;
        cur = r.rg.arc(ra).from;
      } while (cur != start);
    }
  };

  // Successive shortest paths from over-supplied to under-supplied
  // vertices, keeping the residual free of negative cycles throughout (so
  // every augmentation is a true shortest path and optimality is certified
  // at the end).
  cancel_negative_cycles();
  while (true) {
    std::vector<int> sources;
    std::vector<int> sinks;
    for (int v = 0; v < n1; ++v) {
      const std::int64_t d = lf.sigma_my[static_cast<std::size_t>(v)] - excess_of(v);
      if (d < 0) sources.push_back(v);
      if (d > 0) sinks.push_back(v);
    }
    if (sources.empty() || sinks.empty()) break;

    const Residual r = build_residual();
    std::vector<char> usable(static_cast<std::size_t>(r.rg.num_arcs()), 1);
    SsspResult sp = multi_source_sssp(r.rg, sources, r.len, usable, net);
    // Nearest reachable sink.
    int best_sink = -1;
    for (int v : sinks) {
      if (sp.dist[static_cast<std::size_t>(v)] < kInf &&
          (best_sink == -1 || sp.dist[static_cast<std::size_t>(v)] <
                                  sp.dist[static_cast<std::size_t>(best_sink)])) {
        best_sink = v;
      }
    }
    if (best_sink == -1) break;  // demands not routable
    ++rep.finishing_paths;
    int v = best_sink;
    while (sp.parent_arc[static_cast<std::size_t>(v)] != -1) {
      const int ra = sp.parent_arc[static_cast<std::size_t>(v)];
      const auto [a, fwd] = r.arc_map[static_cast<std::size_t>(ra)];
      f1[static_cast<std::size_t>(a)] = fwd ? 1 : 0;
      v = r.rg.arc(ra).from;
    }
    net.charge_announcement();
    cancel_negative_cycles();
  }

  // Verify and extract.
  rep.feasible = true;
  for (int v = 0; v < n1; ++v) {
    if (excess_of(v) != lf.sigma_my[static_cast<std::size_t>(v)]) {
      rep.feasible = false;
    }
  }
  for (int a = 0; a < lf.g1.num_arcs(); ++a) {
    if (lf.is_aux[static_cast<std::size_t>(a)] != 0 &&
        f1[static_cast<std::size_t>(a)] != 0) {
      rep.feasible = false;  // needed the expensive escape arcs
    }
  }
  if (rep.feasible) {
    for (int a = 0; a < g.num_arcs(); ++a) {
      rep.flow[static_cast<std::size_t>(a)] = f1[static_cast<std::size_t>(a)];
      rep.cost += g.arc(a).cost * f1[static_cast<std::size_t>(a)];
    }
  }
  rep.run.capture(net, rounds_before, words_before);
  record_numerics();
  return rep;
}

}  // namespace lapclique::flow
