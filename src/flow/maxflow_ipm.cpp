#include "flow/maxflow_ipm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "euler/flow_round.hpp"
#include "flow/dinic.hpp"
#include "flow/distributed_sssp.hpp"
#include "linalg/pivot_collapse.hpp"

namespace lapclique::flow {

using graph::Digraph;

namespace {

constexpr double kInfCap = 1e18;

/// Algorithm 2 line 9: eta = 1/14 (o(1) corrections dropped), which makes
/// the m^{1/2 - eta} step count the m^{3/7} of Theorem 1.2.
constexpr double kEta = 1.0 / 14.0;
/// Cap on the path length created by Boosting.
constexpr int kBoostBetaCap = 64;
/// eps of the calibration solve, whose Theorem 1.1 rounds each electrical
/// solve is charged.
constexpr double kSolveEps = 1e-10;
/// Stop augmenting once the routed value is within this of the target.
constexpr double kTargetSlack = 0.75;

enum class EKind { kDirect, kSourceSide, kSinkSide, kPrecond, kBoost };

/// Two-sided-capacity edge of the transformed (preconditioned, undirected)
/// graph: flow f may range in (-um, +up); positive = u -> v.
struct TEdge {
  int u = -1;
  int v = -1;
  double up = 0;
  double um = 0;
  double f = 0;
  EKind kind = EKind::kDirect;
  int orig = -1;
};

struct Transformed {
  int nv = 0;
  std::vector<TEdge> edges;
  std::vector<double> y;

  [[nodiscard]] double value_out_of(int s) const {
    double val = 0;
    for (const TEdge& e : edges) {
      if (e.u == s) val += e.f;
      if (e.v == s) val -= e.f;
    }
    return val;
  }
};

Transformed build_transformed(const Digraph& g, int s, int t, std::int64_t max_cap) {
  Transformed tr;
  tr.nv = g.num_vertices();
  tr.y.assign(static_cast<std::size_t>(tr.nv), 0.0);
  for (int a = 0; a < g.num_arcs(); ++a) {
    const graph::Arc& arc = g.arc(a);
    // Arcs into s / out of t never carry s-t flow; skip them (w.l.o.g.).
    if (arc.to == s || arc.from == t) continue;
    const auto c = static_cast<double>(arc.cap);
    if (c <= 0) continue;
    tr.edges.push_back(TEdge{arc.from, arc.to, c, c, 0, EKind::kDirect, a});
    if (arc.to != s) {
      tr.edges.push_back(TEdge{s, arc.to, c, c, 0, EKind::kSourceSide, a});
    }
    if (arc.from != t) {
      tr.edges.push_back(TEdge{arc.from, t, c, c, 0, EKind::kSinkSide, a});
    }
  }
  const auto cap2u = static_cast<double>(2 * std::max<std::int64_t>(max_cap, 1));
  for (int j = 0; j < g.num_arcs(); ++j) {
    tr.edges.push_back(TEdge{t, s, cap2u, cap2u, 0, EKind::kPrecond, -1});
  }
  return tr;
}

double resistance(const TEdge& e) {
  const double rp = e.up - e.f;
  const double rm = e.um + e.f;
  return 1.0 / (rp * rp) + 1.0 / (rm * rm);
}

double min_residual(const TEdge& e) { return std::min(e.up - e.f, e.um + e.f); }

/// The electrical solves of one run, on one ElectricalSolver.  Augmentation
/// and Fixing change only the resistances, so the solver refactors; after
/// Boosting, the one step that changes the topology, it analyzes the new
/// one.  A resumed run's first solve analyzes.
struct Electrical {
  clique::Network& net;
  std::int64_t rounds_per_solve = 0;
  int& solves;
  ElectricalSolver solver;

  /// One electrical-flow solve on the current resistances.
  linalg::Vec potentials(const Transformed& tr, std::span<const double> chi) {
    std::vector<ElectricalEdge> ee;
    ee.reserve(tr.edges.size());
    for (const TEdge& e : tr.edges) ee.push_back(ElectricalEdge{e.u, e.v, resistance(e)});
    solver.factor(tr.nv, std::move(ee));
    ++solves;
    return solver.potentials(chi, net, rounds_per_solve);
  }
};

/// Largest step in (0, delta] keeping every edge strictly interior.
double safe_step(const Transformed& tr, const std::vector<double>& dir, double delta) {
  double limit = delta;
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    const TEdge& e = tr.edges[i];
    const double d = dir[i];
    if (d > 0) {
      limit = std::min(limit, 0.9 * (e.up - e.f) / d);
    } else if (d < 0) {
      limit = std::min(limit, 0.9 * (e.um + e.f) / -d);
    }
  }
  return std::max(limit, 0.0);
}

/// Algorithm 3 (Augmentation): one electrical solve, step delta along it.
/// Returns the congestion vector rho.
std::vector<double> augmentation(Transformed& tr, int s, int t, double target_f,
                                 double delta, Electrical& el) {
  clique::Network& net = el.net;
  const obs::TraceSpan span(net.tracer(), "augmentation");
  linalg::Vec chi(static_cast<std::size_t>(tr.nv), 0.0);
  chi[static_cast<std::size_t>(s)] = -target_f;
  chi[static_cast<std::size_t>(t)] = target_f;
  const linalg::Vec phi = el.potentials(tr, chi);
  const std::vector<double> ftilde = el.solver.induced_flow(phi);

  const double step = safe_step(tr, ftilde, delta);
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    tr.edges[i].f += step * ftilde[i];
  }
  for (int v = 0; v < tr.nv; ++v) {
    tr.y[static_cast<std::size_t>(v)] += step * phi[static_cast<std::size_t>(v)];
  }
  {
    net.charge_all_to_all(2);  // rho-norm allreduce + step announcement
  }

  std::vector<double> rho(tr.edges.size());
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    rho[i] = ftilde[i] / std::max(min_residual(tr.edges[i]), 1e-12);
  }
  return rho;
}

/// Algorithm 4 (Fixing): local correction + one electrical solve to cancel
/// the correction's residue.
void fixing(Transformed& tr, Electrical& el) {
  clique::Network& net = el.net;
  const obs::TraceSpan span(net.tracer(), "fixing");
  const std::size_t m = tr.edges.size();
  std::vector<double> theta(m);
  for (std::size_t i = 0; i < m; ++i) {
    const TEdge& e = tr.edges[i];
    const double w = 1.0 / resistance(e);
    const double grad = 1.0 / (e.up - e.f) - 1.0 / (e.um + e.f);
    theta[i] = w * ((tr.y[static_cast<std::size_t>(e.v)] -
                     tr.y[static_cast<std::size_t>(e.u)]) -
                    grad);
  }
  const double step1 = safe_step(tr, theta, 1.0);
  for (std::size_t i = 0; i < m; ++i) tr.edges[i].f += step1 * theta[i];

  // Residue of theta, to be cancelled electrically.
  linalg::Vec residue(static_cast<std::size_t>(tr.nv), 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const TEdge& e = tr.edges[i];
    residue[static_cast<std::size_t>(e.v)] += step1 * theta[i];
    residue[static_cast<std::size_t>(e.u)] -= step1 * theta[i];
  }
  for (double& r : residue) r = -r;
  const linalg::Vec phi = el.potentials(tr, residue);
  const std::vector<double> thetap = el.solver.induced_flow(phi);
  const double step2 = safe_step(tr, thetap, 1.0);
  for (std::size_t i = 0; i < m; ++i) tr.edges[i].f += step2 * thetap[i];
  for (int v = 0; v < tr.nv; ++v) {
    tr.y[static_cast<std::size_t>(v)] += step2 * phi[static_cast<std::size_t>(v)];
  }
  net.charge_announcement();  // step announcement broadcast
}

/// Algorithm 5 (Boosting): replace the most congested edges by paths.  The
/// next electrical solve analyzes the new topology.
void boosting(Transformed& tr, const std::vector<double>& rho,
              std::int64_t max_cap, clique::Network& net) {
  const obs::TraceSpan span(net.tracer(), "boosting");
  // rho is the congestion vector of the *last augmentation*; boosting steps
  // in between may have grown the edge list, so only the edges rho covers
  // are candidates.
  const std::size_t m = std::min(tr.edges.size(), rho.size());
  const int k = std::max(
      1, static_cast<int>(std::pow(static_cast<double>(m), 4.0 * kEta)));
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&rho](std::size_t a, std::size_t b) {
    return std::abs(rho[a]) > std::abs(rho[b]);
  });

  for (int picked = 0; picked < k && picked < static_cast<int>(m); ++picked) {
    const std::size_t ei = order[static_cast<std::size_t>(picked)];
    TEdge e = tr.edges[ei];
    const double rmin = std::max(min_residual(e), 1e-9);
    // Clamped in double before the cast: 2U / rmin can pass INT_MAX.
    const int beta = static_cast<int>(
        std::min(2.0 + std::ceil(2.0 * static_cast<double>(max_cap) / rmin),
                 static_cast<double>(kBoostBetaCap)));

    const double grad = 1.0 / (e.up - e.f) - 1.0 / (e.um + e.f);
    // Path u = v0, v1, ..., v_beta = v.
    std::vector<int> pathv(static_cast<std::size_t>(beta) + 1);
    pathv[0] = e.u;
    pathv[static_cast<std::size_t>(beta)] = e.v;
    for (int i = 1; i < beta; ++i) {
      pathv[static_cast<std::size_t>(i)] = tr.nv++;
      tr.y.push_back(0.0);
    }
    // y values along the path (Algorithm 5 lines 7-11).
    tr.y[static_cast<std::size_t>(pathv[1])] = tr.y[static_cast<std::size_t>(e.v)];
    if (beta >= 2) {
      tr.y[static_cast<std::size_t>(pathv[2])] =
          tr.y[static_cast<std::size_t>(e.v)] + grad;
    }
    for (int i = 3; i < beta; ++i) {
      tr.y[static_cast<std::size_t>(pathv[static_cast<std::size_t>(i)])] =
          tr.y[static_cast<std::size_t>(pathv[static_cast<std::size_t>(i - 1)])] -
          grad / std::max(beta - 2, 1);
    }

    // First two edges inherit e's capacities; the rest get the boosted ones.
    const double boosted_um =
        std::abs(grad) > 1e-12
            ? (1.0 / grad) * std::max(beta - 2, 1) - e.f
            : kInfCap;
    for (int i = 0; i < beta; ++i) {
      TEdge ne;
      ne.u = pathv[static_cast<std::size_t>(i)];
      ne.v = pathv[static_cast<std::size_t>(i) + 1];
      ne.f = e.f;
      if (i < 2) {
        ne.up = e.up;
        ne.um = e.um;
      } else {
        ne.up = kInfCap;
        ne.um = std::max(std::abs(boosted_um), 1.0 + std::abs(e.f) * 2.0);
      }
      if (i == 0) {
        ne.kind = e.kind;  // keeps the original identity for extraction
        ne.orig = e.orig;
      } else {
        ne.kind = EKind::kBoost;
        ne.orig = -1;
      }
      if (i == 0) {
        tr.edges[ei] = ne;
      } else {
        tr.edges.push_back(ne);
      }
    }
  }
  // The surgery itself is local; announcing it is one broadcast.
  net.charge_announcement();
}

/// Restores exact conservation at every vertex other than s and t: pushes
/// each vertex's excess to its parent in a BFS tree of the transformed graph
/// rooted at s, children first.  `flow` holds one entry per edge, in grid
/// units.
void push_excess_to_source(const Transformed& tr, int s, int t,
                           std::vector<std::int64_t>& flow) {
  std::vector<std::int64_t> excess(static_cast<std::size_t>(tr.nv), 0);
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    excess[static_cast<std::size_t>(tr.edges[i].v)] += flow[i];
    excess[static_cast<std::size_t>(tr.edges[i].u)] -= flow[i];
  }
  std::vector<int> parent_edge(static_cast<std::size_t>(tr.nv), -1);
  std::vector<int> bfs_order;
  {
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(tr.nv));
    for (std::size_t i = 0; i < tr.edges.size(); ++i) {
      adj[static_cast<std::size_t>(tr.edges[i].u)].push_back(static_cast<int>(i));
      adj[static_cast<std::size_t>(tr.edges[i].v)].push_back(static_cast<int>(i));
    }
    std::vector<char> seen(static_cast<std::size_t>(tr.nv), 0);
    std::queue<int> q;
    q.push(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      bfs_order.push_back(v);
      for (int ei : adj[static_cast<std::size_t>(v)]) {
        const TEdge& e = tr.edges[static_cast<std::size_t>(ei)];
        const int o = e.u == v ? e.v : e.u;
        if (seen[static_cast<std::size_t>(o)] == 0) {
          seen[static_cast<std::size_t>(o)] = 1;
          parent_edge[static_cast<std::size_t>(o)] = ei;
          q.push(o);
        }
      }
    }
  }
  for (auto it = bfs_order.rbegin(); it != bfs_order.rend(); ++it) {
    const int v = *it;
    if (v == s || v == t) continue;
    const std::int64_t ex = excess[static_cast<std::size_t>(v)];
    if (ex == 0) continue;
    const int ei = parent_edge[static_cast<std::size_t>(v)];
    if (ei < 0) continue;
    const TEdge& e = tr.edges[static_cast<std::size_t>(ei)];
    // Push ex from v toward its parent.
    if (e.v == v) {
      flow[static_cast<std::size_t>(ei)] -= ex;
      excess[static_cast<std::size_t>(e.u)] += ex;
    } else {
      flow[static_cast<std::size_t>(ei)] += ex;
      excess[static_cast<std::size_t>(e.v)] += ex;
    }
    excess[static_cast<std::size_t>(v)] = 0;
  }
}

/// Snap the fractional flow to the Delta grid and repair conservation in
/// integral grid units so FlowRounding's precondition holds exactly.
void snap_and_repair(Transformed& tr, int s, int t, double delta_grid) {
  const double inv = 1.0 / delta_grid;
  std::vector<std::int64_t> units(tr.edges.size());
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    units[i] = static_cast<std::int64_t>(std::llround(tr.edges[i].f * inv));
  }
  push_excess_to_source(tr, s, t, units);
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    tr.edges[i].f = static_cast<double>(units[i]) * delta_grid;
  }
}

/// Turns an arbitrary nonnegative per-arc candidate into a feasible integral
/// s-t flow by solving max flow on the candidate-capped capacities.  In the
/// real algorithm this step is Madry's exact extraction lemma and costs O(1)
/// rounds of local arithmetic; see DESIGN.md §3 (substitution).
std::vector<std::int64_t> repair_to_feasible(const Digraph& g, int s, int t,
                                             const std::vector<double>& h) {
  Digraph capped(g.num_vertices());
  for (int a = 0; a < g.num_arcs(); ++a) {
    const auto cap = static_cast<std::int64_t>(std::llround(
        std::clamp(h[static_cast<std::size_t>(a)], 0.0,
                   static_cast<double>(g.arc(a).cap))));
    capped.add_arc(g.arc(a).from, g.arc(a).to, cap, 0);
  }
  return dinic_max_flow(capped, s, t).flow;
}

// --- checkpoint/resume support (src/ckpt) ----------------------------------

constexpr const char* kCkptAlgo = "maxflow";

/// Resumable mid-loop state of the Theorem 1.2 IPM: everything the progress
/// loop reads that setup computed, plus the transformed graph itself.  The
/// full Transformed must travel (not just f/y): Boosting mutates and grows
/// the edge list and vertex count, and `m0` — the *initial* edge count that
/// delta0, the congestion threshold, and the iteration budget derive from —
/// is unrecoverable from a boosted edge list.
struct IpmLoopState {
  std::int64_t rounds_before = 0;
  std::int64_t words_before = 0;
  std::int64_t m0 = 0;
  double target_f = 0;
  int boosts = 0;
  Transformed tr;
  std::vector<double> rho;
};

/// The payload layout, run by both coders.
template <typename Coder>
void state_fields(Coder& c, ckpt::Field<Coder, IpmLoopState>& st,
                  ckpt::Field<Coder, MaxFlowIpmReport>& rep) {
  c.i64(st.rounds_before);
  c.i64(st.words_before);
  c.i64(st.m0);
  c.f64(st.target_f);
  c.int64(st.boosts);
  c.i64(rep.rounds_per_solve);
  c.int64(rep.ipm_iterations);
  c.int64(rep.augmentation_steps);
  c.int64(rep.boosting_steps);
  c.int64(rep.laplacian_solves);
  c.int64(st.tr.nv);
  c.f64_vec(st.tr.y);
  // Seven 8-byte fields per edge.
  c.seq(st.tr.edges, 7 * 8, "transformed edge", [&](auto& ed) {
    c.int64(ed.u);
    c.int64(ed.v);
    c.f64(ed.up);
    c.f64(ed.um);
    c.f64(ed.f);
    c.enumeration(ed.kind, EKind::kBoost, "transformed-edge kind");
    c.int64(ed.orig);
  });
  c.f64_vec(st.rho);
}

std::string encode_ipm_state(const IpmLoopState& st,
                             const MaxFlowIpmReport& rep) {
  ckpt::Encoder e;
  state_fields(e, st, rep);
  return e.take();
}

void decode_ipm_state(const ckpt::Checkpoint& ck, IpmLoopState& st,
                      MaxFlowIpmReport& rep) {
  ckpt::Decoder d(ck.source.empty() ? "<maxflow checkpoint>" : ck.source,
                  ck.state);
  state_fields(d, st, rep);
  if (!d.done()) d.fail("trailing junk after max-flow IPM state");
}

}  // namespace

MaxFlowIpmReport max_flow_clique(const Digraph& g, int s, int t,
                                 clique::Network& net, const MaxFlowIpmOptions& opt) {
  if (s == t || s < 0 || t < 0 || s >= g.num_vertices() || t >= g.num_vertices()) {
    throw std::invalid_argument("max_flow_clique: bad s/t");
  }
  const ckpt::CheckpointHooks& hooks = opt.checkpoint;
  const std::uint64_t ghash = hooks.any() ? ckpt::graph_hash(g) : 0;
  const std::int64_t max_cap = std::max<std::int64_t>(g.max_capacity(), 1);

  MaxFlowIpmReport rep;
  rep.flow.assign(static_cast<std::size_t>(g.num_arcs()), 0);

  IpmLoopState st;
  std::int64_t it0 = 0;

  if (hooks.resume != nullptr) {
    // Bit-identical continuation: verify the header, decode the loop state,
    // then restore the run container (accounting + attached ledger +
    // fault-plan counters) — all before a single charge or phase switch, so
    // the resumed run's ledgers pick up exactly where the checkpointed run
    // left them.  In particular set_phase must NOT run here: the restored
    // ledger already holds the open "maxflow/ipm" phase span, and
    // re-switching would bump its visit count.
    ckpt::resume_run(*hooks.resume, kCkptAlgo, ghash, net,
                     [&] { decode_ipm_state(*hooks.resume, st, rep); });
    it0 = hooks.resume->batch;
  } else {
    net.set_phase("maxflow/setup");
    st.rounds_before = net.rounds();
    st.words_before = net.words_sent();
    st.tr = build_transformed(g, s, t, max_cap);
    if (st.tr.edges.empty()) {
      rep.run.capture(net, st.rounds_before, st.words_before);
      return rep;  // no s-t flow possible
    }
    st.m0 = static_cast<std::int64_t>(st.tr.edges.size());
    net.charge_announcement();

    // Target: maxflow(transformed) = C + 2mU + 2 f*(G0); we aim at an upper
    // bound for f* from local capacities (overshoot is safe: the finisher is
    // exact regardless).
    double cap_sum = 0;
    for (const TEdge& e : st.tr.edges) {
      if (e.kind == EKind::kDirect) cap_sum += e.up;
    }
    double bound = 0;
    if (opt.known_value >= 0) {
      bound = static_cast<double>(opt.known_value);
    } else {
      double out_s = 0;
      double in_t = 0;
      for (int a = 0; a < g.num_arcs(); ++a) {
        if (g.arc(a).from == s) out_s += static_cast<double>(g.arc(a).cap);
        if (g.arc(a).to == t) in_t += static_cast<double>(g.arc(a).cap);
      }
      bound = std::min(out_s, in_t);
    }
    const double precond_cap =
        2.0 * static_cast<double>(max_cap) * static_cast<double>(g.num_arcs());
    st.target_f = cap_sum + precond_cap + 2.0 * bound;

    // Calibrate the Theorem 1.1 round cost at this topology.
    net.set_phase("maxflow/calibration");
    std::vector<ElectricalEdge> cal;
    for (const TEdge& e : st.tr.edges) cal.push_back({e.u, e.v, resistance(e)});
    rep.rounds_per_solve =
        calibrate_solve_rounds(st.tr.nv, cal, kSolveEps);
    // The calibration solve itself (broadcast rounds, like every solve).
    net.charge_all_to_all(rep.rounds_per_solve);
  }

  Transformed& tr = st.tr;
  Electrical el{net, rep.rounds_per_solve, rep.laplacian_solves, {}};
  // RunInfo reports the most recent factor.  Boosting changes the topology,
  // and as the transformed graph grows past 512 vertices kAuto moves from
  // the dense to the sparse factor, so this describes the last topology
  // solved on, not every one.
  const auto record_numerics = [&] {
    if (rep.laplacian_solves > 0) {
      rep.run.numerics = linalg::to_string(el.solver.factor_stats().chosen);
      rep.run.factor_fill = el.solver.factor_stats().fill_nnz;
    }
  };
  const double m = static_cast<double>(st.m0);
  const double target_f = st.target_f;
  const std::int64_t rounds_before = st.rounds_before;
  const std::int64_t words_before = st.words_before;
  const std::function<std::string()> encode = [&] {
    return encode_ipm_state(st, rep);
  };

  // Progress loop (Algorithm 2, lines 6-18).
  fault::FaultPlan* plan = net.fault_plan();
  // Guard rail: a diverging electrical-flow step leaves NaN/inf in the edge
  // flows or potentials.  Detect it after every solve and degrade to the
  // exact sequential baseline (the whole point of the IPM is round count,
  // not correctness — Dinic gives the same value with zero risk).
  const auto divergence = [&]() -> const char* {
    if (plan != nullptr && plan->ipm_nan_due(rep.ipm_iterations) &&
        !tr.edges.empty()) {
      // Fault drill: poison the state exactly like an overflowing solve.
      tr.edges[0].f = std::numeric_limits<double>::quiet_NaN();
    }
    for (const TEdge& e : tr.edges) {
      if (!std::isfinite(e.f)) return "non-finite edge flow in IPM state";
    }
    for (double yv : tr.y) {
      if (!std::isfinite(yv)) return "non-finite potential in IPM state";
    }
    return nullptr;
  };
  const auto degrade = [&](const char* reason) {
    rep.run.used_fallback = true;
    rep.run.fallback_reason = reason;
    if (plan != nullptr) ++plan->stats().ipm_fallbacks;
    net.set_phase("maxflow/fallback");
    // The exact baseline is centralized: gather the arc list (3 words per
    // arc) to a coordinator, solve locally, broadcast the value.
    net.charge_gossip(3 * static_cast<std::int64_t>(g.num_arcs()));
    const MaxFlowResult exact = dinic_max_flow(g, s, t);
    rep.value = exact.value;
    rep.flow = exact.flow;
    rep.run.capture(net, rounds_before, words_before);
    record_numerics();
    return rep;
  };
  const double delta0 = 1.0 / std::pow(m, 0.5 - kEta);
  const double rho_threshold = std::pow(m, 0.5 - kEta) / 33.0;
  const double budget = 100.0 * opt.iteration_scale / delta0 *
                        std::log2(static_cast<double>(max_cap) + 2.0);
  const std::int64_t iters = std::min<std::int64_t>(
      opt.max_iterations, static_cast<std::int64_t>(std::ceil(budget)));

  // A pivot that collapses in an electrical factorization is divergence
  // too: the resistances have spread past what LDL^T without pivoting can
  // factor.  Only that exception is caught; preemption and serve deadlines
  // are runtime_errors as well and must pass through.
  try {
    if (hooks.resume == nullptr) {
      net.set_phase("maxflow/ipm");
      st.rho = augmentation(tr, s, t, target_f, delta0, el);
      fixing(tr, el);
      ++rep.augmentation_steps;
      if (const char* reason = divergence()) return degrade(reason);
      // Boundary 0: the state after initial augmentation, so even a run
      // preempted inside its very first loop batch resumes instead of
      // restarting.  Boundaries double as deadline-check points for the
      // serve frontend, checked even when no checkpoint hooks are attached.
      ckpt::boundary(hooks, net, 0, kCkptAlgo, ghash, encode);
    }

    for (std::int64_t it = it0; it < iters; ++it) {
      ++rep.ipm_iterations;
      if (const char* reason = divergence()) return degrade(reason);
      const double val = tr.value_out_of(s);
      if (val >= target_f - kTargetSlack) break;

      double rho3 = 0;
      for (double r : st.rho) rho3 += std::abs(r) * std::abs(r) * std::abs(r);
      rho3 = std::cbrt(rho3);

      if (rho3 <= rho_threshold || st.boosts >= 60 || !opt.enable_boosting) {
        const double delta =
            std::min(delta0, 1.0 / (33.0 * std::max(rho3, 1e-9)));
        st.rho = augmentation(tr, s, t, target_f, delta, el);
        fixing(tr, el);
        ++rep.augmentation_steps;
      } else {
        boosting(tr, st.rho, max_cap, net);
        ++st.boosts;
        ++rep.boosting_steps;
      }
      // Boundary it+1: the state a continuation entering the loop at it+1
      // needs — written before the preempt check, so a preempted run always
      // leaves the snapshot it will resume from.
      ckpt::boundary(hooks, net, it + 1, kCkptAlgo, ghash, encode);
    }
  } catch (const linalg::PivotCollapse&) {
    return degrade("pivot collapsed in an electrical factorization");
  }
  if (const char* reason = divergence()) return degrade(reason);
  rep.routed_fraction = tr.value_out_of(s) / std::max(target_f, 1e-9);

  // Line 19: round the flow (Lemma 4.2 with Delta = O(1/m)).
  net.set_phase("maxflow/rounding");
  int k = 2;
  while ((1 << k) < 4 * static_cast<int>(tr.edges.size())) ++k;
  const double delta_grid = 1.0 / static_cast<double>(1 << k);
  snap_and_repair(tr, s, t, delta_grid);
  net.charge_announcement();

  // Orient two-sided edges by flow sign for the rounding digraph.
  Digraph rg(tr.nv);
  graph::Flow rf;
  for (const TEdge& e : tr.edges) {
    if (e.f >= 0) {
      rg.add_arc(e.u, e.v, static_cast<std::int64_t>(std::ceil(e.up)) + 2, 0);
      rf.push_back(e.f);
    } else {
      rg.add_arc(e.v, e.u, static_cast<std::int64_t>(std::ceil(e.um)) + 2, 0);
      rf.push_back(-e.f);
    }
  }
  euler::FlowRoundingOptions ropt;
  ropt.delta = delta_grid;
  // The transformed graph's extra (boosted) vertices are virtual: each is
  // simulated by one of its endpoint's clique nodes, so the rounding runs on
  // a lifted network and its rounds are charged to the real one.
  clique::Network lifted_net(std::max(tr.nv, 2));
  lifted_net.set_routing_mode(net.routing_mode());
  const euler::FlowRoundingResult rounded =
      euler::round_flow(rg, rf, s, t, lifted_net, ropt);
  net.charge(lifted_net.rounds(), lifted_net.words_sent());
  rep.rounding_phases = rounded.phases;

  // Extraction to the original digraph: h_a = (g_a + c_a) / 2, then repair
  // (Madry's extraction lemma; O(1) rounds of local arithmetic — see header).
  net.set_phase("maxflow/extraction");
  std::vector<double> h(static_cast<std::size_t>(g.num_arcs()), 0.0);
  for (std::size_t i = 0; i < tr.edges.size(); ++i) {
    const TEdge& e = tr.edges[i];
    if (e.kind != EKind::kDirect || e.orig < 0) continue;
    const double sign = rg.arc(static_cast<int>(i)).from == e.u ? 1.0 : -1.0;
    const double gval = sign * rounded.flow[i];
    h[static_cast<std::size_t>(e.orig)] =
        (gval + static_cast<double>(g.arc(e.orig).cap)) / 2.0;
  }
  std::vector<std::int64_t> warm = repair_to_feasible(g, s, t, h);
  net.charge_announcement();

  // Lines 20-21: augmenting paths to exact optimality.
  net.set_phase("maxflow/augmenting");
  while (true) {
    auto path = residual_augmenting_path(g, warm, s, t, net);
    if (!path.has_value()) break;
    ++rep.finishing_augmenting_paths;
    std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
    for (const auto& [a, fwd] : *path) {
      const std::int64_t res = fwd ? g.arc(a).cap - warm[static_cast<std::size_t>(a)]
                                   : warm[static_cast<std::size_t>(a)];
      bottleneck = std::min(bottleneck, res);
    }
    for (const auto& [a, fwd] : *path) {
      warm[static_cast<std::size_t>(a)] += fwd ? bottleneck : -bottleneck;
    }
    net.charge_announcement();
  }

  rep.flow = std::move(warm);
  for (int a : g.out_arcs(s)) rep.value += rep.flow[static_cast<std::size_t>(a)];
  for (int a : g.in_arcs(s)) rep.value -= rep.flow[static_cast<std::size_t>(a)];
  rep.run.capture(net, rounds_before, words_before);
  record_numerics();
  return rep;
}

}  // namespace lapclique::flow
