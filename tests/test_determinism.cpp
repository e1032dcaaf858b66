// Bit-determinism across repeated runs.
//
// Every public entry point is run twice under each routing mode (charged,
// executed, broadcast), in one process, so no state a run leaves behind (a
// static or a cache) may reach the next.  Per mode, the suite asserts
//
//   * numeric outputs are BYTE-identical (doubles compared through their
//     bit patterns, not with tolerances),
//   * integer outputs, round counts, and word counts are equal,
//   * the per-phase PhaseLedger and the full RoundLedger span-tree JSON are
//     identical,
//
// and repeats the check with an active FaultPlan, where recovery replays
// must also land on the same rounds.  Instance seeds derive from
// LAPCLIQUE_TEST_SEED (see test_seed.hpp).  The test names keep
// "AcrossThreadCounts" from when the suite also swept thread counts, so
// that their ids stay stable; every kernel now runs on the calling thread.
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/round_ledger.hpp"
#include "test_seed.hpp"

namespace lapclique {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Everything one run produces, flattened into comparable channels.
struct Observed {
  std::vector<double> values;      ///< compared bit-for-bit
  std::vector<std::int64_t> ints;  ///< flows, orientations, counters
  std::int64_t rounds = 0;
  std::int64_t words = 0;
  std::map<std::string, std::int64_t> phases;
  std::string ledger_json;  ///< full span tree (empty when tracing is off)
};

void expect_identical(const Observed& a, const Observed& b, const std::string& where) {
  ASSERT_EQ(a.values.size(), b.values.size()) << where;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(bits(a.values[i]), bits(b.values[i])) << where << " value index " << i;
  }
  EXPECT_EQ(a.ints, b.ints) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.words, b.words) << where;
  EXPECT_EQ(a.phases, b.phases) << where;
  EXPECT_EQ(a.ledger_json, b.ledger_json) << where;
}

/// Runs `fn(rt)` twice under each routing mode and asserts that, per mode,
/// both runs observe the same bits.  `fn` must fill values/ints; the
/// harness fills the accounting channels from the RunInfo that `fn` returns
/// and from the attached ledger.
template <typename Fn>
void expect_repeat_invariant(Fn fn) {
  for (const clique::RoutingMode mode :
       {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
        clique::RoutingMode::kBroadcast}) {
    std::optional<Observed> base;
    for (int pass = 0; pass < 2; ++pass) {
      obs::RoundLedger ledger;
      Runtime rt;
      rt.routing_mode = mode;
      rt.trace = &ledger;
      Observed got;
      const RunInfo run = fn(rt, got);
      got.rounds = run.rounds;
      got.words = run.words;
      got.phases = run.phases.rounds_by_phase;
      got.ledger_json = ledger.to_json().dump();
      if (!base) {
        base = std::move(got);
      } else {
        expect_identical(*base, got,
                         std::string(clique::to_string(mode)) + " second run");
      }
    }
  }
}

TEST(Determinism, SolveLaplacianAcrossThreadCounts) {
  const Graph g = graph::random_connected_gnm(48, 180, test::base_seed());
  std::vector<double> b(48, 0.0);
  b[0] = 1.0;
  b[47] = -1.0;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
    got.values = rep.x;
    got.ints = {rep.stats.chebyshev_iterations, rep.stats.restarts};
    got.values.push_back(rep.stats.kappa);
    return rep.run;
  });
}

TEST(Determinism, SparsifyAcrossThreadCounts) {
  const Graph g = graph::with_random_weights(
      graph::random_connected_gnm(40, 240, test::base_seed() + 1), 64,
      test::base_seed() + 2);
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = sparsify(g, {}, rt);
    for (const graph::Edge& e : rep.h.edges()) {
      got.ints.push_back(e.u);
      got.ints.push_back(e.v);
      got.values.push_back(e.w);
    }
    got.ints.push_back(rep.stats.levels_used);
    got.ints.push_back(rep.stats.clusters_total);
    return rep.run;
  });
}

TEST(Determinism, EulerianOrientationAcrossThreadCounts) {
  const Graph g = graph::union_of_random_closed_walks(32, 6, 10,
                                                      test::base_seed() + 3);
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = eulerian_orientation(g, rt);
    for (std::int8_t o : rep.orientation) got.ints.push_back(o);
    got.ints.push_back(rep.levels);
    return rep.run;
  });
}

TEST(Determinism, RoundFlowAcrossThreadCounts) {
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 3, 1);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  euler::FlowRoundingOptions opt;
  opt.delta = 0.5;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = round_flow(g, {0.5, 0.5, 0.5, 0.5}, 0, 3, opt, rt);
    got.values = rep.flow;
    got.ints = {rep.phases};
    return rep.run;
  });
}

TEST(Determinism, MaxFlowAcrossThreadCounts) {
  const Digraph g = graph::random_flow_network(12, 30, 5, test::base_seed() + 4);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = max_flow(g, 0, 11, opt, rt);
    got.ints = rep.flow;
    got.ints.push_back(rep.value);
    got.ints.push_back(rep.ipm_iterations);
    got.ints.push_back(rep.finishing_augmenting_paths);
    return rep.run;
  });
}

TEST(Determinism, MinCostFlowAcrossThreadCounts) {
  const Digraph g =
      graph::random_unit_cost_digraph(10, 40, 6, test::base_seed() + 5);
  const auto sigma = graph::feasible_unit_demands(g, 3, test::base_seed() + 6);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = min_cost_flow(g, sigma, opt, rt);
    got.ints = rep.flow;
    got.ints.push_back(rep.feasible ? 1 : 0);
    got.ints.push_back(rep.cost);
    return rep.run;
  });
}

TEST(Determinism, MinCostMaxFlowAcrossThreadCounts) {
  const Digraph g =
      graph::random_unit_cost_digraph(10, 36, 5, test::base_seed() + 7);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = min_cost_max_flow(g, 0, 9, opt, rt);
    got.ints = rep.flow;
    got.ints.push_back(rep.value);
    got.ints.push_back(rep.cost);
    got.ints.push_back(rep.probes);
    return rep.run;
  });
}

TEST(Determinism, ApproxMaxFlowAcrossThreadCounts) {
  const Graph g = graph::random_connected_gnm(12, 36, test::base_seed() + 8);
  flow::ApproxMaxFlowOptions opt;
  opt.eps = 0.2;
  opt.iteration_scale = 0.3;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = approx_max_flow(g, 0, 11, opt, rt);
    got.values = rep.flow;
    got.values.push_back(rep.value);
    got.ints = {rep.iterations, rep.probes};
    return rep.run;
  });
}

TEST(Determinism, MinimumSpanningForestAcrossThreadCounts) {
  const Graph g = graph::with_random_weights(
      graph::random_connected_gnm(64, 256, test::base_seed() + 9), 32,
      test::base_seed() + 10);
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = minimum_spanning_forest(g, rt);
    for (int e : rep.edges) got.ints.push_back(e);
    got.ints.push_back(rep.phases);
    got.values = {rep.total_weight};
    return rep.run;
  });
}

TEST(Determinism, EffectiveResistanceAcrossThreadCounts) {
  const Graph g = graph::random_connected_gnm(24, 72, test::base_seed() + 11);
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    const auto rep = effective_resistance(g, 0, 23, 1e-8, rt);
    got.values = {rep.resistance};
    return rep.run;
  });
}

// --- under an active fault plan -------------------------------------------
// A fresh FaultPlan with the same seed is armed for each run: the injected
// drops/corruptions/duplicates and their recovery replays must land on
// identical rounds.

TEST(Determinism, SolveLaplacianUnderFaultsAcrossThreadCounts) {
  const Graph g = graph::random_connected_gnm(20, 60, test::base_seed() + 12);
  std::vector<double> b(20, 0.0);
  b[0] = 1.0;
  b[19] = -1.0;
  fault::FaultSpec spec;
  spec.drop = 0.01;
  spec.corrupt = 0.005;
  spec.duplicate = 0.01;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    fault::FaultPlan plan(spec, test::base_seed());
    Runtime faulty = rt;
    faulty.faults = &plan;
    const auto rep = solve_laplacian(g, b, 1e-6, {}, faulty);
    got.values = rep.x;
    got.ints = {plan.stats().recovery_rounds, plan.stats().retransmitted_words,
                rep.run.used_fallback ? 1 : 0};
    return rep.run;
  });
}

TEST(Determinism, MaxFlowUnderFaultsAcrossThreadCounts) {
  const Digraph g =
      graph::random_flow_network(12, 30, 5, test::base_seed() + 13);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  fault::FaultSpec spec;
  spec.drop = 0.005;
  spec.duplicate = 0.005;
  expect_repeat_invariant([&](const Runtime& rt, Observed& got) {
    fault::FaultPlan plan(spec, test::base_seed() + 1);
    Runtime faulty = rt;
    faulty.faults = &plan;
    const auto rep = max_flow(g, 0, 11, opt, faulty);
    got.ints = rep.flow;
    got.ints.push_back(rep.value);
    got.ints.push_back(plan.stats().recovery_rounds);
    got.ints.push_back(rep.run.used_fallback ? 1 : 0);
    return rep.run;
  });
}

}  // namespace
}  // namespace lapclique
