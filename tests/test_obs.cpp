// Tests for the observability layer (src/obs): span nesting, the invariant
// that per-phase totals sum exactly to the Network's grand total, JSON
// round-tripping, and the null-ledger no-op contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cliquesim/network.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "euler/euler_orient.hpp"
#include "obs/json.hpp"
#include "obs/round_ledger.hpp"

namespace {

using namespace lapclique;
using obs::RoundLedger;
using obs::TraceSpan;

std::int64_t subtree_rounds(const RoundLedger& ledger, int id) {
  return ledger.subtree(id).rounds;
}

TEST(RoundLedger, StartsEmpty) {
  RoundLedger ledger;
  EXPECT_EQ(ledger.total_rounds(), 0);
  EXPECT_EQ(ledger.total_words(), 0);
  EXPECT_EQ(ledger.total_ops(), 0);
  EXPECT_EQ(ledger.depth(), 0);
  ASSERT_EQ(ledger.spans().size(), 1u);  // just the root
  EXPECT_EQ(ledger.spans()[0].name, "<total>");
}

TEST(RoundLedger, SpanNestingAttributesToInnermost) {
  RoundLedger ledger;
  {
    TraceSpan outer(&ledger, "outer");
    ledger.record_op("charge", 5, 50);
    {
      TraceSpan inner(&ledger, "inner");
      ledger.record_op("charge", 3, 30);
    }
    ledger.record_op("charge", 2, 20);
  }
  ledger.record_op("charge", 1, 10);  // lands on the root

  EXPECT_EQ(ledger.total_rounds(), 11);
  EXPECT_EQ(ledger.total_words(), 110);
  EXPECT_EQ(ledger.total_ops(), 4);

  EXPECT_EQ(ledger.rounds_in("outer"), 10);  // subtree: 5 + 2 + 3
  EXPECT_EQ(ledger.rounds_in("inner"), 3);
  EXPECT_EQ(subtree_rounds(ledger, 0), 11);

  // Self totals exclude descendants.
  const auto& nodes = ledger.spans();
  int outer_id = -1;
  int inner_id = -1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == "outer") outer_id = static_cast<int>(i);
    if (nodes[i].name == "inner") inner_id = static_cast<int>(i);
  }
  ASSERT_GE(outer_id, 0);
  ASSERT_GE(inner_id, 0);
  EXPECT_EQ(nodes[static_cast<std::size_t>(outer_id)].self.rounds, 7);
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner_id)].self.rounds, 3);
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner_id)].parent, outer_id);
}

TEST(RoundLedger, RepeatedSpansMergeByName) {
  RoundLedger ledger;
  for (int i = 0; i < 10; ++i) {
    TraceSpan s(&ledger, "loop_body");
    ledger.record_op("charge", 1, 0);
  }
  // One merged node, ten visits — not ten nodes.
  int count = 0;
  for (const auto& node : ledger.spans()) {
    if (node.name == "loop_body") {
      ++count;
      EXPECT_EQ(node.visits, 10);
      EXPECT_EQ(node.self.rounds, 10);
    }
  }
  EXPECT_EQ(count, 1);
}

TEST(RoundLedger, SwitchPhaseReplacesPhaseSpanButNestsUnderTraceSpan) {
  RoundLedger ledger;
  ledger.switch_phase("phase_a");
  ledger.record_op("charge", 1, 0);
  ledger.switch_phase("phase_b");  // replaces phase_a at the same depth
  ledger.record_op("charge", 2, 0);
  EXPECT_EQ(ledger.depth(), 1);
  EXPECT_EQ(ledger.rounds_in("phase_a"), 1);
  EXPECT_EQ(ledger.rounds_in("phase_b"), 2);

  {
    TraceSpan s(&ledger, "algorithm");
    ledger.switch_phase("phase_c");  // nests under the TraceSpan
    ledger.record_op("charge", 4, 0);
    EXPECT_EQ(ledger.depth(), 3);  // phase_b / algorithm / phase_c
  }
  // Closing the TraceSpan pops the dangling phase span with it.
  EXPECT_EQ(ledger.depth(), 1);
  EXPECT_EQ(ledger.rounds_in("algorithm"), 4);
  EXPECT_EQ(ledger.rounds_in("phase_c"), 4);

  // Switching to the same phase again is a no-op, not a new visit.
  ledger.switch_phase("phase_b");
  EXPECT_EQ(ledger.depth(), 1);
}

TEST(RoundLedger, BreakdownCoversEveryRound) {
  RoundLedger ledger;
  ledger.record_op("charge", 2, 0);  // unattributed (root)
  {
    TraceSpan a(&ledger, "part_a");
    ledger.record_op("charge", 3, 0);
  }
  {
    TraceSpan b(&ledger, "part_b");
    ledger.record_op("charge", 5, 0);
  }
  std::int64_t sum = 0;
  for (const auto& [name, rounds] : ledger.breakdown()) sum += rounds;
  EXPECT_EQ(sum, ledger.total_rounds());
}

TEST(RoundLedger, NetworkPhaseTotalsSumToGrandTotal) {
#if !LAPCLIQUE_TRACE
  GTEST_SKIP() << "tracing hooks compiled out (LAPCLIQUE_TRACE=0)";
#endif
  // Run a real algorithm with the tracer attached and check the core
  // invariant: every charged round lands in exactly one span, so the span
  // tree sums to Network::rounds(), as do the per-primitive totals.
  const Graph g = graph::cycle(16);
  clique::Network net(16);
  RoundLedger ledger;
  net.set_tracer(&ledger);
  const auto rep = euler::eulerian_orientation(g, net);
  ASSERT_GT(rep.rounds, 0);

  EXPECT_EQ(ledger.total_rounds(), net.rounds());
  EXPECT_EQ(ledger.total_words(), net.words_sent());
  EXPECT_EQ(subtree_rounds(ledger, 0), net.rounds());

  std::int64_t prim = 0;
  for (const auto& [name, tot] : ledger.primitives()) prim += tot.rounds;
  EXPECT_EQ(prim, net.rounds());

  std::int64_t top = 0;
  for (const auto& [name, rounds] : ledger.breakdown()) top += rounds;
  EXPECT_EQ(top, net.rounds());

  // The legacy flat PhaseLedger and the span tree agree per phase.
  for (const auto& [phase, rounds] : net.ledger().rounds_by_phase) {
    EXPECT_EQ(ledger.rounds_in(phase), rounds) << phase;
  }
}

TEST(RoundLedger, CongestionHistogramsTrackPerNodeWords) {
#if !LAPCLIQUE_TRACE
  GTEST_SKIP() << "tracing hooks compiled out (LAPCLIQUE_TRACE=0)";
#endif
  clique::Network net(4);
  RoundLedger ledger;
  net.set_tracer(&ledger);
  std::vector<clique::Msg> msgs;
  msgs.push_back(clique::Msg{0, 1, 0, clique::Word(std::int64_t{1})});
  msgs.push_back(clique::Msg{0, 2, 0, clique::Word(std::int64_t{2})});
  msgs.push_back(clique::Msg{3, 1, 0, clique::Word(std::int64_t{3})});
  net.exchange(msgs);

  ASSERT_EQ(ledger.sent_histogram().size(), 4u);
  EXPECT_EQ(ledger.sent_histogram()[0], 2);
  EXPECT_EQ(ledger.sent_histogram()[3], 1);
  EXPECT_EQ(ledger.recv_histogram()[1], 2);
  EXPECT_EQ(ledger.recv_histogram()[2], 1);
  const auto& prim = ledger.primitives().at("exchange");
  EXPECT_EQ(prim.words, 3);
  EXPECT_EQ(prim.max_node_load, 2);
}

TEST(RoundLedger, CountersAccumulate) {
  RoundLedger ledger;
  ledger.add_counter("direct", 2);
  EXPECT_EQ(ledger.counters().at("direct"), 2);
  obs::count(&ledger, "solves");
  obs::count(&ledger, "solves", 4);
  obs::count(nullptr, "solves");  // null-safe no-op
#if LAPCLIQUE_TRACE
  EXPECT_EQ(ledger.counters().at("solves"), 5);
#else
  // count() is a compiled-out no-op when the hooks are disabled.
  EXPECT_EQ(ledger.counters().count("solves"), 0u);
#endif
}

TEST(RoundLedger, ResetClearsEverything) {
  RoundLedger ledger;
  {
    TraceSpan s(&ledger, "work");
    ledger.record_op("charge", 7, 70);
    ledger.add_counter("c", 1);
  }
  ledger.reset();
  EXPECT_EQ(ledger.total_rounds(), 0);
  EXPECT_EQ(ledger.spans().size(), 1u);
  EXPECT_TRUE(ledger.counters().empty());
  EXPECT_EQ(ledger.depth(), 0);
}

TEST(RoundLedger, JsonRoundTrip) {
#if !LAPCLIQUE_TRACE
  GTEST_SKIP() << "tracing hooks compiled out (LAPCLIQUE_TRACE=0)";
#endif
  const Graph g = graph::cycle(16);
  clique::Network net(16);
  RoundLedger ledger;
  net.set_tracer(&ledger);
  (void)euler::eulerian_orientation(g, net);

  const obs::json::Value exported = ledger.to_json();
  const obs::json::Value reparsed = obs::json::parse(ledger.to_json_string());
  EXPECT_EQ(exported, reparsed);
  EXPECT_EQ(reparsed.at("schema").as_string(), "lapclique-trace-v1");
  EXPECT_EQ(reparsed.at("total_rounds").as_int(), net.rounds());

  // Compact form round-trips too.
  EXPECT_EQ(obs::json::parse(exported.dump()), exported);
}

TEST(RoundLedger, JsonParserHandlesEscapesAndNesting) {
  const auto v = obs::json::parse(
      R"({"a\n\"b":[1,-2.5,true,false,null,"A"],"c":{}})");
  const auto& arr = v.at("a\n\"b").as_array();
  ASSERT_EQ(arr.size(), 6u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(arr[1].as_double(), -2.5);
  EXPECT_TRUE(arr[2].as_bool());
  EXPECT_FALSE(arr[3].as_bool());
  EXPECT_TRUE(arr[4].is_null());
  EXPECT_EQ(arr[5].as_string(), "A");
  EXPECT_TRUE(v.at("c").as_object().empty());
  EXPECT_THROW(obs::json::parse("{"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("[1,]"), std::invalid_argument);
}

TEST(RoundLedger, NullLedgerIsANoOp) {
  // No tracer attached: identical accounting, no ledger state anywhere.
  const Graph g = graph::cycle(16);

  clique::Network plain(16);
  const auto rep_plain = euler::eulerian_orientation(g, plain);

  clique::Network traced(16);
  RoundLedger ledger;
  traced.set_tracer(&ledger);
  const auto rep_traced = euler::eulerian_orientation(g, traced);

  // The ledger observes, never charges: bit-identical round accounting.
  EXPECT_EQ(rep_plain.rounds, rep_traced.rounds);
  EXPECT_EQ(plain.rounds(), traced.rounds());
  EXPECT_EQ(plain.words_sent(), traced.words_sent());

  // TraceSpan and count on a null ledger are safe no-ops.
  {
    TraceSpan s(nullptr, "nothing");
    obs::count(nullptr, "nothing");
  }
  SUCCEED();
}

TEST(RuntimeJson, RoutingModeRoundTripsForEveryMode) {
  // A charged/executed ternary used to mislabel any third mode; the JSON
  // must carry the real mode string, and that string must parse back to the
  // same enum value.
  for (const clique::RoutingMode mode :
       {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
        clique::RoutingMode::kBroadcast}) {
    Runtime rt;
    rt.routing_mode = mode;
    const obs::json::Value v =
        obs::json::parse(runtime_to_json(rt).dump());
    const std::string name = v.at("routing_mode").as_string();
    EXPECT_EQ(name, clique::to_string(mode));
    const auto parsed = clique::routing_mode_from_string(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(clique::routing_mode_from_string("carrier-pigeon").has_value());
}

}  // namespace
