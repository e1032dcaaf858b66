// Cross-model differential harness — the correctness lever behind
// RoutingMode::kBroadcast.
//
// Every facade entry point is run twice under each of the three routing
// modes (unicast charged, unicast executed, Broadcast Congested Clique), and
// the suite asserts
//
//   * solution vectors/flows are BYTE-identical across all six runs
//     (doubles compared through their bit patterns, exactly as in
//     test_determinism.cpp) — the modes differ in accounting only, never in
//     delivered data;
//   * round and word counts are a function of the mode alone: both passes
//     over a mode charge the same;
//   * broadcast golden round counts are pinned exactly, mirroring the
//     unicast goldens in test_round_regression.cpp;
//   * a broadcast ledgers no more words than unicast (each word crosses the
//     broadcast channel once instead of once per ordered pair);
//   * on the deterministic expander family the broadcast/unicast round
//     ratio stays inside the polylog envelope of Forster–de Vos
//     (arXiv 2205.12059).
//
// Instances use fixed literal seeds (not LAPCLIQUE_TEST_SEED): the pinned
// golden rounds must not move when CI varies the base seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "graph/generators.hpp"

namespace lapclique {
namespace {

using clique::RoutingMode;

constexpr RoutingMode kAllModes[] = {RoutingMode::kCharged,
                                     RoutingMode::kExecuted,
                                     RoutingMode::kBroadcast};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Everything one run produces, flattened into comparable channels.
struct ModelRun {
  std::vector<double> values;      ///< compared bit-for-bit
  std::vector<std::int64_t> ints;  ///< flows, orientations, counters
  std::int64_t rounds = 0;
  std::int64_t words = 0;
};

/// Runs `fn` twice per mode and asserts the differential invariants.
/// `golden_broadcast_rounds` pins the broadcast accounting the same way
/// test_round_regression.cpp pins unicast.
template <typename Fn>
void expect_model_invariant(const char* label,
                            std::int64_t golden_broadcast_rounds, Fn fn) {
  std::optional<ModelRun> base;
  std::map<RoutingMode, ModelRun> by_mode;
  for (RoutingMode mode : kAllModes) {
    for (int pass = 0; pass < 2; ++pass) {
      Runtime rt;
      rt.routing_mode = mode;
      ModelRun got;
      const RunInfo run = fn(rt, got);
      got.rounds = run.rounds;
      got.words = run.words;

      if (!base.has_value()) {
        base = got;
      } else {
        ASSERT_EQ(base->values.size(), got.values.size())
            << label << " mode=" << clique::to_string(mode)
            << " pass=" << pass;
        for (std::size_t i = 0; i < got.values.size(); ++i) {
          EXPECT_EQ(bits(base->values[i]), bits(got.values[i]))
              << label << " mode=" << clique::to_string(mode)
              << " pass=" << pass << " value index " << i;
        }
        EXPECT_EQ(base->ints, got.ints)
            << label << " mode=" << clique::to_string(mode)
            << " pass=" << pass;
      }

      const auto [it, fresh] = by_mode.emplace(mode, got);
      if (!fresh) {
        // Accounting depends on the mode only: both passes charge the same.
        EXPECT_EQ(it->second.rounds, got.rounds)
            << label << " mode=" << clique::to_string(mode)
            << " pass=" << pass;
        EXPECT_EQ(it->second.words, got.words)
            << label << " mode=" << clique::to_string(mode)
            << " pass=" << pass;
      }
    }
  }

  EXPECT_EQ(by_mode.at(RoutingMode::kBroadcast).rounds,
            golden_broadcast_rounds)
      << label << ": broadcast golden rounds drifted";
  // One ledgered word per broadcast vs one per ordered-pair delivery.
  EXPECT_LE(by_mode.at(RoutingMode::kBroadcast).words,
            by_mode.at(RoutingMode::kCharged).words)
      << label;
}

TEST(ModelDifferential, SolveLaplacian) {
  const Graph g = graph::random_connected_gnm(48, 180, 21);
  std::vector<double> b(48, 0.0);
  b[0] = 1.0;
  b[47] = -1.0;
  expect_model_invariant("solve_laplacian", 209,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
                           got.values = rep.x;
                           got.values.push_back(rep.stats.kappa);
                           got.ints = {rep.stats.chebyshev_iterations,
                                       rep.stats.restarts};
                           return rep.run;
                         });
}

TEST(ModelDifferential, Sparsify) {
  const Graph g = graph::with_random_weights(
      graph::random_connected_gnm(40, 240, 22), 64, 23);
  expect_model_invariant("sparsify", 336, [&](const Runtime& rt, ModelRun& got) {
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

TEST(ModelDifferential, EulerianOrientation) {
  const Graph g = graph::union_of_random_closed_walks(32, 6, 10, 24);
  expect_model_invariant("eulerian_orientation", 172,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = eulerian_orientation(g, rt);
                           for (std::int8_t o : rep.orientation) {
                             got.ints.push_back(o);
                           }
                           got.ints.push_back(rep.levels);
                           return rep.run;
                         });
}

TEST(ModelDifferential, RoundFlow) {
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 3, 1);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  euler::FlowRoundingOptions opt;
  opt.delta = 0.5;
  expect_model_invariant("round_flow", 43, [&](const Runtime& rt, ModelRun& got) {
    const auto rep = round_flow(g, {0.5, 0.5, 0.5, 0.5}, 0, 3, opt, rt);
    got.values = rep.flow;
    got.ints = {rep.phases};
    return rep.run;
  });
}

TEST(ModelDifferential, MaxFlow) {
  const Digraph g = graph::random_flow_network(12, 30, 5, 25);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  expect_model_invariant("max_flow", 6601, [&](const Runtime& rt, ModelRun& got) {
    const auto rep = max_flow(g, 0, 11, opt, rt);
    got.ints = rep.flow;
    got.ints.push_back(rep.value);
    got.ints.push_back(rep.ipm_iterations);
    got.ints.push_back(rep.finishing_augmenting_paths);
    return rep.run;
  });
}

TEST(ModelDifferential, MinCostFlow) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 6, 26);
  const auto sigma = graph::feasible_unit_demands(g, 3, 27);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  expect_model_invariant("min_cost_flow", 18760,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = min_cost_flow(g, sigma, opt, rt);
                           got.ints = rep.flow;
                           got.ints.push_back(rep.feasible ? 1 : 0);
                           got.ints.push_back(rep.cost);
                           return rep.run;
                         });
}

TEST(ModelDifferential, MinCostMaxFlow) {
  const Digraph g = graph::random_unit_cost_digraph(10, 36, 5, 28);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  expect_model_invariant("min_cost_max_flow", 44239,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = min_cost_max_flow(g, 0, 9, opt, rt);
                           got.ints = rep.flow;
                           got.ints.push_back(rep.value);
                           got.ints.push_back(rep.cost);
                           got.ints.push_back(rep.probes);
                           return rep.run;
                         });
}

TEST(ModelDifferential, ApproxMaxFlow) {
  const Graph g = graph::random_connected_gnm(12, 36, 29);
  flow::ApproxMaxFlowOptions opt;
  opt.eps = 0.2;
  opt.iteration_scale = 0.3;
  expect_model_invariant("approx_max_flow", 272639,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = approx_max_flow(g, 0, 11, opt, rt);
                           got.values = rep.flow;
                           got.values.push_back(rep.value);
                           got.ints = {rep.iterations, rep.probes};
                           return rep.run;
                         });
}

// Every round approx_max_flow charges is an all-to-all exchange of one word
// per node (the calibration solve and each MWU iteration, as in the exact
// IPMs), so its words follow from its rounds in each model.
TEST(ModelDifferential, ApproxMaxFlowChargesAllToAllWords) {
  const Graph g = graph::random_connected_gnm(12, 36, 29);
  const std::int64_t n = g.num_vertices();
  flow::ApproxMaxFlowOptions opt;
  opt.eps = 0.2;
  opt.iteration_scale = 0.3;
  for (RoutingMode mode : kAllModes) {
    Runtime rt;
    rt.routing_mode = mode;
    const RunInfo run = approx_max_flow(g, 0, 11, opt, rt).run;
    const std::int64_t per_round = mode == RoutingMode::kBroadcast ? n : n * (n - 1);
    EXPECT_EQ(run.rounds, 272639) << clique::to_string(mode);
    EXPECT_EQ(run.words, run.rounds * per_round) << clique::to_string(mode);
  }
}

TEST(ModelDifferential, MinimumSpanningForest) {
  const Graph g = graph::with_random_weights(
      graph::random_connected_gnm(64, 256, 30), 32, 31);
  expect_model_invariant("minimum_spanning_forest", 6,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = minimum_spanning_forest(g, rt);
                           for (int e : rep.edges) got.ints.push_back(e);
                           got.ints.push_back(rep.phases);
                           got.values = {rep.total_weight};
                           return rep.run;
                         });
}

TEST(ModelDifferential, EffectiveResistance) {
  const Graph g = graph::random_connected_gnm(24, 72, 32);
  expect_model_invariant("effective_resistance", 217,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = effective_resistance(g, 0, 23, 1e-8, rt);
                           got.values = {rep.resistance};
                           return rep.run;
                         });
}

// --- adversarial families ---------------------------------------------------
// The lollipop and preferential-attachment instances stress skewed loads:
// the dense core floods the broadcast channel while the tail idles.

TEST(ModelDifferential, SolveLaplacianOnLollipop) {
  const Graph g = graph::lollipop(16, 16);
  std::vector<double> b(32, 0.0);
  b[0] = 1.0;
  b[31] = -1.0;
  expect_model_invariant("solve_laplacian/lollipop", 262,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
                           got.values = rep.x;
                           got.ints = {rep.stats.chebyshev_iterations};
                           return rep.run;
                         });
}

TEST(ModelDifferential, MinimumSpanningForestOnBarabasiAlbert) {
  const Graph g = graph::with_random_weights(
      graph::barabasi_albert(48, 3, 33), 32, 34);
  expect_model_invariant("minimum_spanning_forest/ba", 9,
                         [&](const Runtime& rt, ModelRun& got) {
                           const auto rep = minimum_spanning_forest(g, rt);
                           for (int e : rep.edges) got.ints.push_back(e);
                           got.values = {rep.total_weight};
                           return rep.run;
                         });
}

// --- polylog envelope (arXiv 2205.12059) ------------------------------------
// Forster–de Vos port the Laplacian toolkit to the Broadcast Congested
// Clique with polylog(n) overhead.  On the deterministic circulant expander
// family the simulator's broadcast/unicast round ratio must stay inside a
// log^2(n) envelope in both directions (the charged unicast bound can
// exceed the exact broadcast schedule, so the ratio is two-sided).

std::int64_t rounds_of(RoutingMode mode, const Graph& g,
                       const std::vector<double>& b) {
  Runtime rt;
  rt.routing_mode = mode;
  const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
  return rep.run.rounds;
}

TEST(ModelDifferential, BroadcastEnvelopeOnExpanderFamily) {
  const std::vector<int> offsets{1, 2, 4, 8};
  for (int n : {32, 64, 128}) {
    const Graph g = graph::circulant(n, offsets);
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    b[0] = 1.0;
    b[static_cast<std::size_t>(n - 1)] = -1.0;
    const std::int64_t uni = rounds_of(RoutingMode::kCharged, g, b);
    const std::int64_t bc = rounds_of(RoutingMode::kBroadcast, g, b);
    const double envelope =
        2.0 * std::log2(static_cast<double>(n)) * std::log2(static_cast<double>(n));
    EXPECT_GT(uni, 0) << n;
    EXPECT_GT(bc, 0) << n;
    EXPECT_LE(static_cast<double>(bc),
              envelope * static_cast<double>(uni))
        << "n=" << n << " broadcast exceeded the polylog envelope";
    EXPECT_LE(static_cast<double>(uni),
              envelope * static_cast<double>(bc))
        << "n=" << n << " unicast exceeded the polylog envelope";
  }
}

TEST(ModelDifferential, BroadcastEnvelopeOnEulerExpanderFamily) {
  const std::vector<int> offsets{1, 2};  // degree 4: even, so orientable
  for (int n : {32, 64, 128}) {
    const Graph g = graph::circulant(n, offsets);
    Runtime uni_rt;
    uni_rt.routing_mode = RoutingMode::kCharged;
    Runtime bc_rt;
    bc_rt.routing_mode = RoutingMode::kBroadcast;
    const auto uni = eulerian_orientation(g, uni_rt);
    const auto bc = eulerian_orientation(g, bc_rt);
    for (std::size_t e = 0; e < uni.orientation.size(); ++e) {
      ASSERT_EQ(uni.orientation[e], bc.orientation[e]) << "n=" << n;
    }
    const double envelope =
        2.0 * std::log2(static_cast<double>(n)) * std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(bc.run.rounds),
              envelope * static_cast<double>(uni.run.rounds))
        << "n=" << n;
    EXPECT_LE(static_cast<double>(uni.run.rounds),
              envelope * static_cast<double>(bc.run.rounds))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace lapclique
