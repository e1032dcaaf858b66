// The accounting invariant: every number a report carries is a Network
// charge.  Each result-returning facade in core/api.hpp runs under a traced
// Runtime in every routing mode, and its report must agree with the trace:
//
//   * run.rounds equals the trace's total_rounds;
//   * run.words equals the trace's total_words;
//   * run.phases sums to run.rounds.
//
// The degraded IPM runs (an ipm-nan drill) and a transport-fault plan cover
// the fallback gathers and the recovery charges.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "graph/generators.hpp"

namespace lapclique {
namespace {

using clique::RoutingMode;

/// Runs `fn` under a fresh traced Runtime (and `faults`, if given) in every
/// routing mode and checks the report's run block against the trace.
void expect_charged(const std::string& label,
                    const std::function<RunInfo(const Runtime&)>& fn,
                    const char* faults = nullptr) {
  for (const RoutingMode mode : {RoutingMode::kCharged, RoutingMode::kExecuted,
                                 RoutingMode::kBroadcast}) {
    SCOPED_TRACE(label + " routing=" + clique::to_string(mode));
    obs::RoundLedger ledger;
    std::unique_ptr<fault::FaultPlan> plan;
    Runtime rt;
    rt.routing_mode = mode;
    rt.trace = &ledger;
    if (faults != nullptr) {
      plan = std::make_unique<fault::FaultPlan>(fault::parse_fault_spec(faults), 1);
      rt.faults = plan.get();
    }
    const RunInfo run = fn(rt);
    ASSERT_GT(run.rounds, 0);
    std::int64_t phase_sum = 0;
    for (const auto& [phase, rounds] : run.phases.rounds_by_phase) phase_sum += rounds;
    EXPECT_EQ(phase_sum, run.rounds);
    EXPECT_EQ(run.rounds, ledger.total_rounds());
    EXPECT_EQ(run.words, ledger.total_words());
  }
}

std::vector<double> pair_demand(int n, int u, int v) {
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[static_cast<std::size_t>(u)] = 1.0;
  b[static_cast<std::size_t>(v)] = -1.0;
  return b;
}

flow::MaxFlowIpmOptions quick_maxflow() {
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  return opt;
}

flow::MinCostIpmOptions quick_mincost() {
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  return opt;
}

TEST(Accounting, SolveAndResistanceAreFullyCharged) {
  const Graph g = graph::random_connected_gnm(24, 72, 3);
  const std::vector<double> b = pair_demand(24, 0, 23);
  expect_charged("solve_laplacian", [&](const Runtime& rt) {
    return solve_laplacian(g, b, 1e-8, {}, rt).run;
  });
  expect_charged("effective_resistance", [&](const Runtime& rt) {
    return effective_resistance(g, 0, 23, 1e-8, rt).run;
  });
  expect_charged(
      "solve_laplacian under transport faults",
      [&](const Runtime& rt) { return solve_laplacian(g, b, 1e-8, {}, rt).run; },
      "drop=0.01,corrupt=0.005,crash=2@40");
}

TEST(Accounting, SparsifyEulerAndMstAreFullyCharged) {
  const Graph dense = graph::complete(16);
  expect_charged("sparsify",
                 [&](const Runtime& rt) { return sparsify(dense, {}, rt).run; });
  const Graph even = graph::doubled(graph::grid(4, 4));
  expect_charged("eulerian_orientation", [&](const Runtime& rt) {
    return eulerian_orientation(even, rt).run;
  });
  const Graph weighted =
      graph::with_random_weights(graph::random_connected_gnm(30, 90, 9), 16, 10);
  expect_charged("minimum_spanning_forest", [&](const Runtime& rt) {
    return minimum_spanning_forest(weighted, rt).run;
  });
}

TEST(Accounting, FlowFacadesAreFullyCharged) {
  Digraph diamond(4);
  diamond.add_arc(0, 1, 1);
  diamond.add_arc(1, 3, 1);
  diamond.add_arc(0, 2, 1);
  diamond.add_arc(2, 3, 1);
  euler::FlowRoundingOptions ropt;
  ropt.delta = 0.5;
  expect_charged("round_flow", [&](const Runtime& rt) {
    return round_flow(diamond, {0.5, 0.5, 0.5, 0.5}, 0, 3, ropt, rt).run;
  });

  const Digraph net = graph::random_flow_network(12, 30, 5, 21);
  expect_charged("max_flow", [&](const Runtime& rt) {
    return max_flow(net, 0, 11, quick_maxflow(), rt).run;
  });

  const Digraph unit = graph::random_unit_cost_digraph(10, 40, 6, 22);
  const std::vector<std::int64_t> sigma = graph::feasible_unit_demands(unit, 3, 23);
  expect_charged("min_cost_flow", [&](const Runtime& rt) {
    return min_cost_flow(unit, sigma, quick_mincost(), rt).run;
  });
  expect_charged("min_cost_max_flow", [&](const Runtime& rt) {
    return min_cost_max_flow(unit, 0, 9, quick_mincost(), rt).run;
  });

  const Graph und = graph::random_connected_gnm(12, 36, 7);
  expect_charged("approx_max_flow", [&](const Runtime& rt) {
    return approx_max_flow(und, 0, 11, {}, rt).run;
  });
}

TEST(Accounting, DegradedIpmRunsAreFullyCharged) {
  const Digraph net = graph::random_flow_network(12, 30, 5, 21);
  expect_charged(
      "max_flow fallback",
      [&](const Runtime& rt) {
        const flow::MaxFlowIpmReport rep = max_flow(net, 0, 11, quick_maxflow(), rt);
        EXPECT_TRUE(rep.run.used_fallback);
        return rep.run;
      },
      "ipm-nan@0");

  const Digraph unit = graph::random_unit_cost_digraph(10, 40, 6, 22);
  const std::vector<std::int64_t> sigma = graph::feasible_unit_demands(unit, 3, 23);
  expect_charged(
      "min_cost_flow fallback with transport faults",
      [&](const Runtime& rt) {
        const flow::MinCostIpmReport rep =
            min_cost_flow(unit, sigma, quick_mincost(), rt);
        EXPECT_TRUE(rep.run.used_fallback);
        return rep.run;
      },
      "drop=0.02,ipm-nan@0");
}

}  // namespace
}  // namespace lapclique
