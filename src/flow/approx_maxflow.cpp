#include "flow/approx_maxflow.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "flow/dinic.hpp"
#include "graph/connectivity.hpp"

namespace lapclique::flow {

using graph::Graph;

namespace {
/// eps of the calibration solve, whose Theorem 1.1 rounds each MWU
/// iteration is charged.
constexpr double kSolveEps = 1e-9;
}  // namespace

std::int64_t exact_max_flow_undirected(const Graph& g, int s, int t) {
  graph::Digraph d(g.num_vertices());
  for (const graph::Edge& e : g.edges()) {
    const auto c = static_cast<std::int64_t>(std::llround(e.w));
    d.add_arc(e.u, e.v, c);
    d.add_arc(e.v, e.u, c);
  }
  return dinic_max_flow(d, s, t).value;
}

namespace {

/// One MWU decision run for target value F.  Returns the fraction of F that
/// the scaled average flow feasibly routes (1.0 = fully routed) and the
/// scaled flow itself.
struct DecideResult {
  double routed_fraction = 0;
  std::vector<double> flow;
  int iterations = 0;
};

/// `solver` is the run's one electrical solver: every decide iteration of
/// every probe solves on g's topology, so only the first solve analyzes it
/// and the rest refactor it for their resistances.
DecideResult decide(const Graph& g, int s, int t, double target_f,
                    const ApproxMaxFlowOptions& opt, clique::Network& net,
                    std::int64_t rounds_per_solve, ElectricalSolver& solver) {
  const auto m = static_cast<std::size_t>(g.num_edges());
  const double md = static_cast<double>(m);
  const double rho = std::sqrt(md / opt.eps);
  const int iters = std::max(
      1, std::min(opt.max_iterations,
                  static_cast<int>(std::ceil(opt.iteration_scale * 2.0 /
                                             (opt.eps * opt.eps) * std::sqrt(md) *
                                             std::log2(md + 2.0)))));

  std::vector<double> w(m, 1.0);
  std::vector<double> sum_flow(m, 0.0);
  linalg::Vec chi(static_cast<std::size_t>(g.num_vertices()), 0.0);
  chi[static_cast<std::size_t>(s)] = -target_f;
  chi[static_cast<std::size_t>(t)] = target_f;

  DecideResult out;
  for (int it = 0; it < iters; ++it) {
    double total_w = 0;
    for (double x : w) total_w += x;
    std::vector<ElectricalEdge> ee;
    ee.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      const graph::Edge& e = g.edge(static_cast<int>(i));
      const double r = (w[i] + opt.eps * total_w / md) / (e.w * e.w);
      ee.push_back(ElectricalEdge{e.u, e.v, r});
    }
    solver.factor(g.num_vertices(), std::move(ee));
    const linalg::Vec phi = solver.potentials(chi);
    const std::vector<double> f = solver.induced_flow(phi);
    net.charge_all_to_all(rounds_per_solve + 1);
    ++out.iterations;

    for (std::size_t i = 0; i < m; ++i) {
      const double cong = std::abs(f[i]) / g.edge(static_cast<int>(i)).w;
      w[i] *= 1.0 + (opt.eps / rho) * std::min(cong, rho);
      sum_flow[i] += f[i];
    }
  }

  // Average and scale down to exact feasibility.
  out.flow.assign(m, 0.0);
  double scale = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    out.flow[i] = sum_flow[i] / out.iterations;
    const double cap = g.edge(static_cast<int>(i)).w;
    if (std::abs(out.flow[i]) > cap) {
      scale = std::min(scale, cap / std::abs(out.flow[i]));
    }
  }
  for (double& x : out.flow) x *= scale;
  out.routed_fraction = scale;
  return out;
}

}  // namespace

ApproxMaxFlowReport approx_max_flow_undirected(const Graph& g, int s, int t,
                                               clique::Network& net,
                                               const ApproxMaxFlowOptions& opt) {
  if (s == t || s < 0 || t < 0 || s >= g.num_vertices() || t >= g.num_vertices()) {
    throw std::invalid_argument("approx_max_flow: bad s/t");
  }
  if (!(opt.eps > 0 && opt.eps < 0.5)) {
    throw std::invalid_argument("approx_max_flow: eps in (0, 0.5)");
  }
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("approx_max_flow: graph must be connected");
  }
  net.set_phase("approx_maxflow");
  const std::int64_t before = net.rounds();
  const std::int64_t words_before = net.words_sent();
  ApproxMaxFlowReport rep;
  rep.flow.assign(static_cast<std::size_t>(g.num_edges()), 0.0);

  // Calibrate one Theorem 1.1 solve at this topology.
  {
    std::vector<ElectricalEdge> ee;
    for (const graph::Edge& e : g.edges()) ee.push_back({e.u, e.v, 1.0 / e.w});
    rep.rounds_per_solve =
        calibrate_solve_rounds(g.num_vertices(), ee, kSolveEps);
    // The calibration solve itself (broadcast rounds, like every solve).
    net.charge_all_to_all(rep.rounds_per_solve);
  }

  // Binary search over F (the decision procedure is approximate, so stop
  // when the bracket is within a (1+eps) factor).
  double lo = 0;
  double hi = std::min(g.weighted_degree(s), g.weighted_degree(t));
  if (hi <= 0) {
    rep.run.capture(net, before, words_before);
    return rep;
  }
  // Establish a feasible starting point at the scale of the answer.
  ElectricalSolver solver;
  while (hi - lo > opt.eps * std::max(hi, 1.0)) {
    const double mid = (lo + hi) / 2.0;
    ++rep.probes;
    DecideResult d = decide(g, s, t, mid, opt, net, rep.rounds_per_solve, solver);
    rep.iterations += d.iterations;
    if (d.iterations > 0) {
      rep.run.numerics = linalg::to_string(solver.factor_stats().chosen);
      rep.run.factor_fill = solver.factor_stats().fill_nnz;
    }
    const double achieved = d.routed_fraction * mid;
    if (achieved > rep.value) {
      rep.value = achieved;
      rep.flow = std::move(d.flow);
    }
    if (d.routed_fraction >= 1.0 - 3.0 * opt.eps) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  rep.run.capture(net, before, words_before);
  return rep;
}

}  // namespace lapclique::flow
