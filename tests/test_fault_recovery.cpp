// The fault-injection contract (docs/ROBUSTNESS.md): for any fault seed and
// under every routing mode, every solver/flow entry point returns a result
// bit-identical to the fault-free run — injection perturbs only the round
// accounting, which grows by exactly the rounds charged under the dedicated
// "recovery" phase, within the bounds promised by RecoveryStats.  The
// algorithm-level drills (ipm-nan@K, solver-nan@K) are the exception: they
// exist to force the guard-rail paths (Chebyshev -> direct factorization,
// IPM -> exact sequential baseline) and are tested for graceful degradation
// instead.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "flow/dinic.hpp"
#include "flow/ssp_mincost.hpp"
#include "graph/generators.hpp"
#include "fault/fault_plan.hpp"
#include "graph/laplacian.hpp"
#include "test_seed.hpp"

namespace lapclique {
namespace {

using fault::FaultPlan;
using fault::FaultSpec;
using fault::RecoveryStats;
using fault::parse_fault_spec;
using test::base_seed;

// A spec that exercises every transport fault kind, including a crash in an
// early communication batch.
const char* const kTransportSpec = "drop=0.02,corrupt=0.01,dup=0.02,crash=1@3";

// The recovery tests run under each routing mode: broadcast retransmits per
// source, and executed routing charges its own schedule.
constexpr clique::RoutingMode kModes[] = {clique::RoutingMode::kCharged,
                                          clique::RoutingMode::kExecuted,
                                          clique::RoutingMode::kBroadcast};

// The RecoveryStats invariants documented in fault_plan.hpp.
void expect_stats_invariants(const RecoveryStats& st) {
  EXPECT_EQ(st.retransmitted_words + st.armored_words,
            st.words_dropped + st.words_corrupted + st.crash_affected_words);
  EXPECT_LE(st.recovery_rounds,
            st.retransmit_attempts + st.retransmitted_words + st.armored_batches +
                3 * st.armored_words + 2 * st.crash_events);
}

void expect_stats_equal(const RecoveryStats& a, const RecoveryStats& b) {
  EXPECT_EQ(a.words_dropped, b.words_dropped);
  EXPECT_EQ(a.words_corrupted, b.words_corrupted);
  EXPECT_EQ(a.words_duplicated, b.words_duplicated);
  EXPECT_EQ(a.crash_events, b.crash_events);
  EXPECT_EQ(a.crash_affected_words, b.crash_affected_words);
  EXPECT_EQ(a.faulty_batches, b.faulty_batches);
  EXPECT_EQ(a.retransmit_attempts, b.retransmit_attempts);
  EXPECT_EQ(a.retransmitted_words, b.retransmitted_words);
  EXPECT_EQ(a.armored_batches, b.armored_batches);
  EXPECT_EQ(a.armored_words, b.armored_words);
  EXPECT_EQ(a.recovery_rounds, b.recovery_rounds);
  EXPECT_EQ(a.recovery_words, b.recovery_words);
}

// --- grammar -------------------------------------------------------------

TEST(FaultSpecGrammar, ParsesAllClauses) {
  const FaultSpec s = parse_fault_spec(
      "drop=0.01,corrupt=0.005,dup=0.02,crash=2@40,retries=4,ipm-nan@3,"
      "solver-nan@all");
  EXPECT_DOUBLE_EQ(s.drop, 0.01);
  EXPECT_DOUBLE_EQ(s.corrupt, 0.005);
  EXPECT_DOUBLE_EQ(s.duplicate, 0.02);
  ASSERT_EQ(s.crashes.size(), 1u);
  EXPECT_EQ(s.crashes[0].node, 2);
  EXPECT_EQ(s.crashes[0].op, 40);
  EXPECT_EQ(s.max_retries, 4);
  EXPECT_EQ(s.ipm_nan_at, 3);
  EXPECT_EQ(s.solver_nan_at, FaultSpec::kAlways);
  EXPECT_TRUE(s.any_transport_faults());
}

TEST(FaultSpecGrammar, RoundTripsThroughToString) {
  const std::string text = "drop=0.25,dup=0.125,crash=0@7,retries=2,solver-nan@1";
  const FaultSpec once = parse_fault_spec(text);
  const FaultSpec twice = parse_fault_spec(to_string(once));
  EXPECT_DOUBLE_EQ(once.drop, twice.drop);
  EXPECT_DOUBLE_EQ(once.corrupt, twice.corrupt);
  EXPECT_DOUBLE_EQ(once.duplicate, twice.duplicate);
  ASSERT_EQ(twice.crashes.size(), 1u);
  EXPECT_EQ(twice.crashes[0].node, 0);
  EXPECT_EQ(twice.crashes[0].op, 7);
  EXPECT_EQ(once.max_retries, twice.max_retries);
  EXPECT_EQ(once.solver_nan_at, twice.solver_nan_at);
}

TEST(FaultSpecGrammar, RejectsMalformedSpecs) {
  const char* const bad[] = {
      "",                      // empty specification
      "drop=",                 // missing probability
      "drop=1.0",              // P must be < 1
      "drop=-0.1",             // P must be >= 0
      "drop=0.1junk",          // trailing junk
      "banana=3",              // unknown clause
      "crash=2",               // missing @OP
      "crash=x@3",             // non-integer node
      "crash=2@-1",            // negative batch index
      "retries=-1",            // negative retry budget
      "ipm-nan@",              // missing iteration
      "solver-nan@banana",     // neither integer nor "all"
      "drop=0.6,corrupt=0.4",  // drop + corrupt must stay below 1
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_fault_spec(text), std::invalid_argument) << text;
  }
}

TEST(FaultSpecGrammar, IntegerClausesCheckTheirFieldRange) {
  // Each integer clause is checked against the field it fills: an int for
  // retries and crash nodes, an int64 for the rest.  Nothing wraps.
  const char* const out_of_range[] = {
      "retries=4294967295",             // would wrap to -1
      "retries=2147483648",             // one past INT_MAX
      "crash=4294967297@0",             // would wrap to node 1
      "crash=0@99999999999999999999",   // past int64
      "preempt=99999999999999999999",   // past int64
      "ipm-nan@-3",                     // negative
  };
  for (const char* text : out_of_range) {
    try {
      (void)parse_fault_spec(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  EXPECT_EQ(parse_fault_spec("retries=2147483647").max_retries, 2147483647);
  EXPECT_EQ(parse_fault_spec("crash=2147483647@0").crashes.at(0).node, 2147483647);
}

TEST(FaultSpecGrammar, ToStringKeepsEveryProbability) {
  // Six significant digits would print 0.9999999 as 1, a spec that does
  // not parse; the text keeps the digits the value needs.
  for (const char* text : {"drop=0.9999999", "drop=0.5,corrupt=0.4999999",
                           "dup=0.123456789", "sock-slow=0.30000000000000004"}) {
    const FaultSpec once = parse_fault_spec(text);
    const std::string printed = to_string(once);
    const FaultSpec twice = parse_fault_spec(printed);
    EXPECT_EQ(to_string(twice), printed) << text;
    EXPECT_EQ(once.drop, twice.drop) << printed;
    EXPECT_EQ(once.corrupt, twice.corrupt) << printed;
    EXPECT_EQ(once.duplicate, twice.duplicate) << printed;
    EXPECT_EQ(once.sock_slow, twice.sock_slow) << printed;
  }
  // Six digits that read back exactly print as before.
  EXPECT_EQ(to_string(parse_fault_spec("drop=0.05,corrupt=0.005")),
            "drop=0.05,corrupt=0.005");
}

// --- transport recovery on a raw network ---------------------------------

TEST(FaultRecovery, DrillOnlySpecAddsNoRounds) {
  // A spec with only algorithm-level drills must leave the transport
  // accounting untouched: no draws, no recovery phase, identical rounds.
  std::vector<clique::Msg> msgs;
  for (int k = 0; k < 24; ++k) {
    msgs.push_back(clique::Msg{k % 6, (k + 1) % 6, k, clique::Word(std::int64_t{k})});
  }
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    FaultPlan plan(parse_fault_spec("ipm-nan@5,solver-nan@2"), base_seed());
    clique::Network plain(6);
    clique::Network faulty(6);
    faulty.set_fault_plan(&plan);
    for (clique::Network* net : {&plain, &faulty}) {
      net->set_routing_mode(mode);
      net->exchange(msgs);
      net->lenzen_route(msgs);
      net->charge(3, 100);
    }
    EXPECT_EQ(plain.rounds(), faulty.rounds());
    EXPECT_EQ(plain.words_sent(), faulty.words_sent());
    EXPECT_EQ(faulty.ledger().rounds_by_phase.count("recovery"), 0u);
    EXPECT_EQ(plan.stats().recovery_rounds, 0);
  }
}

TEST(FaultRecovery, RecoveryIsDeterministicAndPhaseCharged) {
  const auto run = [](std::uint64_t seed, clique::RoutingMode mode,
                      RecoveryStats* stats_out) {
    FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
    clique::Network net(8);
    net.set_routing_mode(mode);
    net.set_fault_plan(&plan);
    std::vector<clique::Msg> msgs;
    for (int k = 0; k < 64; ++k) {
      msgs.push_back(
          clique::Msg{k % 8, (k + 3) % 8, k, clique::Word(std::int64_t{k})});
    }
    for (int rep = 0; rep < 6; ++rep) {
      net.exchange(msgs);
      net.charge(2, 512);  // modeled collective -> bulk recovery path
    }
    *stats_out = plan.stats();
    const auto it = net.ledger().rounds_by_phase.find("recovery");
    const std::int64_t ledgered = it == net.ledger().rounds_by_phase.end()
                                      ? 0
                                      : it->second;
    EXPECT_EQ(ledgered, plan.stats().recovery_rounds);
    return net.rounds();
  };
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    RecoveryStats a;
    RecoveryStats b;
    const std::int64_t rounds_a = run(base_seed(), mode, &a);
    const std::int64_t rounds_b = run(base_seed(), mode, &b);
    EXPECT_EQ(rounds_a, rounds_b);
    expect_stats_equal(a, b);
    expect_stats_invariants(a);
    // This spec and workload must actually inject something, or the suite
    // is vacuous.
    EXPECT_GT(a.words_dropped + a.words_corrupted, 0);
    EXPECT_EQ(a.crash_events, 1);
  }
}

TEST(FaultRecovery, OverheadIsExactlyTheRecoveryPhase) {
  // Faulted rounds = clean rounds + recovery rounds, for any seed: recovery
  // is additive accounting, never a perturbation of the base schedule.
  std::vector<clique::Msg> msgs;
  for (int k = 0; k < 40; ++k) {
    msgs.push_back(clique::Msg{k % 5, (k + 2) % 5, k, clique::Word(std::int64_t{k})});
  }
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    clique::Network clean(5);
    clean.set_routing_mode(mode);
    clean.exchange(msgs);
    clean.charge(1, 300);
    for (std::uint64_t seed = base_seed(); seed < base_seed() + 5; ++seed) {
      FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
      clique::Network net(5);
      net.set_routing_mode(mode);
      net.set_fault_plan(&plan);
      net.exchange(msgs);
      net.charge(1, 300);
      EXPECT_EQ(net.rounds(), clean.rounds() + plan.stats().recovery_rounds) << seed;
      EXPECT_EQ(net.words_sent(),
                clean.words_sent() + plan.stats().recovery_words)
          << seed;
      expect_stats_invariants(plan.stats());
    }
  }
}

// --- bit-identical outputs through the public entry points ----------------

TEST(FaultRecovery, EulerOrientationBitIdenticalUnderFaults) {
  const Graph g = graph::union_of_random_closed_walks(24, 5, 9, 7);
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    clique::Network clean_net(24);
    clean_net.set_routing_mode(mode);
    const auto clean = euler::eulerian_orientation(g, clean_net);
    for (std::uint64_t seed = base_seed(); seed < base_seed() + 3; ++seed) {
      FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
      clique::Network net(24);
      net.set_routing_mode(mode);
      net.set_fault_plan(&plan);
      const auto faulted = euler::eulerian_orientation(g, net);
      EXPECT_EQ(faulted.orientation, clean.orientation) << seed;
      EXPECT_EQ(faulted.levels, clean.levels) << seed;
      EXPECT_EQ(faulted.rounds, clean.rounds + plan.stats().recovery_rounds) << seed;
      expect_stats_invariants(plan.stats());
    }
  }
}

TEST(FaultRecovery, SolveLaplacianBitIdenticalUnderFaults) {
  const Graph g = graph::random_connected_gnm(20, 60, 1);
  std::vector<double> b(20, 0.0);
  b[0] = 1.0;
  b[19] = -1.0;
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    Runtime rt;
    rt.routing_mode = mode;
    const auto clean = solve_laplacian(g, b, 1e-6, {}, rt);
    for (std::uint64_t seed = base_seed(); seed < base_seed() + 3; ++seed) {
      FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
      Runtime faulty = rt;
      faulty.faults = &plan;
      const auto faulted = solve_laplacian(g, b, 1e-6, {}, faulty);
      EXPECT_EQ(faulted.x, clean.x) << seed;
      EXPECT_FALSE(faulted.stats.exact_fallback);
      EXPECT_EQ(faulted.run.rounds, clean.run.rounds + plan.stats().recovery_rounds)
          << seed;
      const auto it = faulted.run.phases.rounds_by_phase.find("recovery");
      ASSERT_NE(it, faulted.run.phases.rounds_by_phase.end()) << seed;
      EXPECT_EQ(it->second, plan.stats().recovery_rounds) << seed;
      EXPECT_GT(it->second, 0) << seed;
      expect_stats_invariants(plan.stats());
    }
  }
}

TEST(FaultRecovery, MaxFlowBitIdenticalUnderFaults) {
  const Digraph g = graph::random_flow_network(12, 30, 5, 21);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    Runtime rt;
    rt.routing_mode = mode;
    const auto clean = max_flow(g, 0, 11, opt, rt);
    for (std::uint64_t seed : {base_seed(), base_seed() + 1}) {
      FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
      Runtime faulty = rt;
      faulty.faults = &plan;
      const auto faulted = max_flow(g, 0, 11, opt, faulty);
      EXPECT_FALSE(faulted.run.used_fallback);
      EXPECT_EQ(faulted.value, clean.value) << seed;
      EXPECT_EQ(faulted.flow, clean.flow) << seed;
      EXPECT_EQ(faulted.ipm_iterations, clean.ipm_iterations) << seed;
      EXPECT_GE(faulted.run.rounds, clean.run.rounds) << seed;
      EXPECT_GT(plan.stats().recovery_rounds, 0) << seed;
      expect_stats_invariants(plan.stats());
    }
  }
}

TEST(FaultRecovery, MinCostFlowBitIdenticalUnderFaults) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 6, 22);
  const auto sigma = graph::feasible_unit_demands(g, 3, 23);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  for (const clique::RoutingMode mode : kModes) {
    SCOPED_TRACE(clique::to_string(mode));
    Runtime rt;
    rt.routing_mode = mode;
    const auto clean = min_cost_flow(g, sigma, opt, rt);
    for (std::uint64_t seed : {base_seed(), base_seed() + 1}) {
      FaultPlan plan(parse_fault_spec(kTransportSpec), seed);
      Runtime faulty = rt;
      faulty.faults = &plan;
      const auto faulted = min_cost_flow(g, sigma, opt, faulty);
      EXPECT_FALSE(faulted.run.used_fallback);
      EXPECT_EQ(faulted.feasible, clean.feasible) << seed;
      EXPECT_EQ(faulted.cost, clean.cost) << seed;
      EXPECT_EQ(faulted.flow, clean.flow) << seed;
      EXPECT_GE(faulted.run.rounds, clean.run.rounds) << seed;
      EXPECT_GT(plan.stats().recovery_rounds, 0) << seed;
      expect_stats_invariants(plan.stats());
    }
  }
}

// --- solver guard rail ----------------------------------------------------

TEST(SolverGuardRail, ExhaustedRestartsFallBackToExactFactorization) {
  const Graph g = graph::random_connected_gnm(16, 40, 3);
  std::vector<double> b(16, 0.0);
  b[0] = 2.0;
  b[15] = -2.0;
  FaultPlan plan(parse_fault_spec("solver-nan@all"), base_seed());
  Runtime rt;
  rt.faults = &plan;
  const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
  EXPECT_TRUE(rep.stats.exact_fallback);
  EXPECT_EQ(plan.stats().solver_fallbacks, 1);
  EXPECT_GT(rep.run.phases.rounds_by_phase.count("solver/fallback"), 0u);
  // The fallback is a direct factorization: the answer is exact even though
  // every Chebyshev certification was poisoned.
  const auto l = graph::laplacian(g);
  const auto xstar = linalg::BackendLaplacianFactor::factor(l).solve(b);
  auto diff = linalg::sub(rep.x, xstar);
  EXPECT_LT(graph::laplacian_norm(l, diff),
            1e-8 * std::max(graph::laplacian_norm(l, xstar), 1e-12));
}

TEST(SolverGuardRail, SingleFailedRestartRecoversWithoutFallback) {
  const Graph g = graph::random_connected_gnm(16, 40, 3);
  std::vector<double> b(16, 0.0);
  b[0] = 2.0;
  b[15] = -2.0;
  FaultPlan plan(parse_fault_spec("solver-nan@0"), base_seed());
  Runtime rt;
  rt.faults = &plan;
  const auto rep = solve_laplacian(g, b, 1e-8, {}, rt);
  EXPECT_GE(rep.stats.restarts, 1);
  EXPECT_FALSE(rep.stats.exact_fallback);
  EXPECT_EQ(plan.stats().solver_fallbacks, 0);
  EXPECT_LE(rep.stats.relative_residual, 1e-6);
}

// --- IPM guard rails ------------------------------------------------------

TEST(IpmGuardRail, MaxFlowDegradesToExactDinic) {
  const Digraph g = graph::random_flow_network(12, 30, 5, 21);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  FaultPlan plan(parse_fault_spec("ipm-nan@0"), base_seed());
  Runtime rt;
  rt.faults = &plan;
  const auto rep = max_flow(g, 0, 11, opt, rt);
  EXPECT_TRUE(rep.run.used_fallback);
  EXPECT_FALSE(rep.run.fallback_reason.empty());
  EXPECT_EQ(plan.stats().ipm_fallbacks, 1);
  EXPECT_EQ(rep.value, flow::dinic_max_flow(g, 0, 11).value);
}

TEST(IpmGuardRail, MinCostFlowDegradesToExactSsp) {
  const Digraph g = graph::random_unit_cost_digraph(10, 40, 6, 22);
  const auto sigma = graph::feasible_unit_demands(g, 3, 23);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  FaultPlan plan(parse_fault_spec("ipm-nan@0"), base_seed());
  Runtime rt;
  rt.faults = &plan;
  const auto rep = min_cost_flow(g, sigma, opt, rt);
  EXPECT_TRUE(rep.run.used_fallback);
  EXPECT_FALSE(rep.run.fallback_reason.empty());
  EXPECT_EQ(plan.stats().ipm_fallbacks, 1);
  const auto oracle = flow::ssp_min_cost_flow(g, sigma);
  ASSERT_EQ(rep.feasible, oracle.feasible);
  if (oracle.feasible) {
    EXPECT_EQ(rep.cost, oracle.cost);
  }
}

// --- machine-readable summary --------------------------------------------

TEST(FaultRecovery, JsonSummaryCarriesSpecSeedAndStats) {
  FaultPlan plan(parse_fault_spec(kTransportSpec), 42);
  clique::Network net(4);
  net.set_fault_plan(&plan);
  net.charge(1, 1000);
  const obs::json::Value v = plan.to_json();
  EXPECT_EQ(v.at("seed").as_int(), 42);
  EXPECT_EQ(v.at("spec").as_string(), to_string(plan.spec()));
  const obs::json::Value& rec = v.at("recovery");
  EXPECT_EQ(rec.at("recovery_rounds").as_int(), plan.stats().recovery_rounds);
  EXPECT_EQ(rec.at("words_dropped").as_int(), plan.stats().words_dropped);
  EXPECT_TRUE(rec.contains("ipm_fallbacks"));
  EXPECT_TRUE(rec.contains("solver_fallbacks"));
}

}  // namespace
}  // namespace lapclique
