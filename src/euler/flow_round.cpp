#include "euler/flow_round.hpp"

#include <cmath>
#include <stdexcept>

#include "euler/euler_orient.hpp"
#include "graph/graph.hpp"

namespace lapclique::euler {

using graph::Digraph;
using graph::Flow;

namespace {

/// The snap to the Delta grid may move no flow value by more than this.
constexpr double kSnapTolerance = 1e-6;

bool is_power_of_two_reciprocal(double delta) {
  if (!(delta > 0) || delta > 1) return false;
  const double inv = 1.0 / delta;
  const double rounded = std::round(inv);
  if (std::abs(inv - rounded) > 1e-9) return false;
  const auto k = static_cast<std::uint64_t>(rounded);
  return k != 0 && (k & (k - 1)) == 0;
}

}  // namespace

FlowRoundingResult round_flow(const Digraph& g, const Flow& f, int s, int t,
                              clique::Network& net, const FlowRoundingOptions& opt) {
  if (static_cast<int>(f.size()) != g.num_arcs()) {
    throw std::invalid_argument("round_flow: flow size mismatch");
  }
  if (!is_power_of_two_reciprocal(opt.delta)) {
    throw std::invalid_argument("round_flow: 1/Delta must be a power of two");
  }
  net.set_phase("euler/flow_rounding");
  const std::int64_t rounds_before = net.rounds();

  // Work in integer units of Delta.
  const double inv_delta = std::round(1.0 / opt.delta);
  std::vector<std::int64_t> units(f.size());
  for (std::size_t a = 0; a < f.size(); ++a) {
    const double u = f[a] * inv_delta;
    const double r = std::round(u);
    if (std::abs(u - r) > kSnapTolerance * inv_delta) {
      throw std::invalid_argument(
          "round_flow: flow is not Delta-granular within tolerance");
    }
    units[a] = static_cast<std::int64_t>(r);
  }

  // Algorithm 1, line 1-2: close the circulation with a t->s edge carrying
  // the total flow value (always added; if the value is already integral the
  // closing edge just never lands in E').  Summed in units, not from f: a
  // double sum past 2^53 units can get the parity wrong, and then E' has odd
  // degrees.
  std::int64_t total_units = 0;
  for (int a : g.out_arcs(s)) total_units += units[static_cast<std::size_t>(a)];
  for (int a : g.in_arcs(s)) total_units -= units[static_cast<std::size_t>(a)];

  FlowRoundingResult out;
  std::int64_t step = 1;  // current Delta in units of the base grid
  const auto base_arcs = static_cast<std::size_t>(g.num_arcs());
  while (static_cast<double>(step) < inv_delta) {
    ++out.phases;
    const obs::TraceSpan span(net.tracer(), "rounding_phase");
    // E' = arcs whose unit count is odd at the current granularity
    // (plus the closing edge).  Collect them into an undirected graph.
    std::vector<int> odd_arcs;
    for (std::size_t a = 0; a < base_arcs; ++a) {
      if ((units[a] / step) % 2 != 0) odd_arcs.push_back(static_cast<int>(a));
    }
    const bool closing_odd = (total_units / step) % 2 != 0;
    if (odd_arcs.empty() && !closing_odd) {
      step *= 2;
      continue;
    }

    graph::Graph sub(g.num_vertices());
    std::vector<double> costs;
    int forced_edge = -1;
    for (int a : odd_arcs) {
      sub.add_edge(g.arc(a).from, g.arc(a).to);
      costs.push_back(static_cast<double>(g.arc(a).cost));
    }
    if (closing_odd) {
      forced_edge = sub.add_edge(t, s);
      costs.push_back(0.0);
    }

    EulerOrientCosts ec;
    OrientationResult orient;
    if (opt.use_costs || forced_edge >= 0) {
      ec.edge_cost = std::move(costs);
      if (!opt.use_costs) {
        // Only the forced edge matters; zero the costs.
        std::fill(ec.edge_cost.begin(), ec.edge_cost.end(), 0.0);
      }
      ec.forced_forward_edge = forced_edge;
      orient = eulerian_orientation(sub, net, &ec);
    } else {
      orient = eulerian_orientation(sub, net, nullptr);
    }

    // Lines 13-17: forward edges round up, backward edges round down.
    for (std::size_t i = 0; i < odd_arcs.size(); ++i) {
      const auto a = static_cast<std::size_t>(odd_arcs[i]);
      if (orient.orientation[i] == 1) {
        units[a] += step;
      } else {
        units[a] -= step;
      }
    }
    if (closing_odd) {
      // The closing edge is forced forward, so the total value rounds up.
      total_units += step;
    }
    step *= 2;
  }

  out.flow.assign(f.size(), 0.0);
  for (std::size_t a = 0; a < f.size(); ++a) {
    out.flow[a] = static_cast<double>(units[a]) / inv_delta;
  }
  out.rounds = net.rounds() - rounds_before;
  return out;
}

}  // namespace lapclique::euler
