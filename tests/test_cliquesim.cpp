#include <gtest/gtest.h>

#include "cliquesim/network.hpp"
#include "exec/pool.hpp"

namespace lapclique::clique {
namespace {

TEST(Word, RoundTripsInt) {
  const Word w(std::int64_t{-12345});
  EXPECT_EQ(w.as_int(), -12345);
}

TEST(Word, RoundTripsDouble) {
  const Word w(3.14159);
  EXPECT_DOUBLE_EQ(w.as_double(), 3.14159);
}

TEST(Network, RejectsNonPositiveSize) {
  EXPECT_THROW(Network(0), std::invalid_argument);
  EXPECT_THROW(Network(-3), std::invalid_argument);
}

TEST(Network, StartsAtZeroRounds) {
  Network net(4);
  EXPECT_EQ(net.rounds(), 0);
  EXPECT_EQ(net.words_sent(), 0);
}

TEST(Network, ChargeAccumulates) {
  Network net(4);
  net.charge(3);
  net.charge(2, 10);
  EXPECT_EQ(net.rounds(), 5);
  EXPECT_EQ(net.words_sent(), 10);
}

TEST(Network, ChargeRejectsNegative) {
  Network net(4);
  EXPECT_THROW(net.charge(-1), std::invalid_argument);
}

TEST(Network, ExchangeChargesMaxPairMultiplicity) {
  Network net(4);
  // Two messages on the same ordered pair -> 2 rounds; others overlap free.
  std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                        {0, 1, 0, Word(std::int64_t{2})},
                        {2, 3, 0, Word(std::int64_t{3})}};
  net.exchange(msgs);
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.inbox(1).size(), 2u);
  EXPECT_EQ(net.inbox(3).size(), 1u);
}

TEST(Network, ExchangeValidatesNodeIds) {
  Network net(2);
  EXPECT_THROW(net.exchange({{0, 5, 0, Word()}}), std::out_of_range);
}

TEST(Network, LenzenRouteChargesConstantForUnitLoad) {
  Network net(8);
  std::vector<Msg> msgs;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) msgs.push_back({i, j, 0, Word(std::int64_t{i})});
    }
  }
  net.lenzen_route(msgs);
  // max load = 7 <= n, so c = 1 and the charge is the Lenzen constant.
  EXPECT_EQ(net.rounds(), net.lenzen_constant());
}

TEST(Network, LenzenRouteScalesWithLoad) {
  Network net(4);
  std::vector<Msg> msgs;
  // Node 0 sends 9 messages to node 1: load ceil(9/4) = 3.
  for (int k = 0; k < 9; ++k) msgs.push_back({0, 1, k, Word(std::int64_t{k})});
  net.lenzen_route(msgs);
  EXPECT_EQ(net.rounds(), 3 * net.lenzen_constant());
}

TEST(Network, DrainInboxEmptiesIt) {
  Network net(3);
  net.exchange({{0, 1, 7, Word(std::int64_t{42})}});
  auto msgs = net.drain_inbox(1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].tag, 7);
  EXPECT_EQ(msgs[0].payload.as_int(), 42);
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, PhaseLedgerSplitsRounds) {
  Network net(4);
  net.set_phase("a");
  net.charge(2);
  net.set_phase("b");
  net.charge(5);
  EXPECT_EQ(net.ledger().rounds_by_phase.at("a"), 2);
  EXPECT_EQ(net.ledger().rounds_by_phase.at("b"), 5);
}

TEST(Network, ResetAccountingClearsEverything) {
  Network net(4);
  net.charge(9, 10);
  net.reset_accounting();
  EXPECT_EQ(net.rounds(), 0);
  EXPECT_EQ(net.words_sent(), 0);
  EXPECT_TRUE(net.op_log().empty());
}

TEST(Network, OpLogRecordsMaxNodeLoad) {
  Network net(4);
  net.lenzen_route({{0, 1, 0, Word()}, {0, 2, 0, Word()}, {0, 3, 0, Word()}});
  ASSERT_FALSE(net.op_log().empty());
  EXPECT_EQ(net.op_log().back().max_node_load, 3);
}

// Congestion audit invariant: an operation never moves more words through a
// single node than the model's bandwidth times the rounds charged allows.
TEST(Network, CongestionAuditHolds) {
  Network net(6);
  std::vector<Msg> msgs;
  for (int i = 1; i < 6; ++i) {
    for (int k = 0; k < 4; ++k) msgs.push_back({i, 0, k, Word(std::int64_t{k})});
  }
  net.lenzen_route(msgs);
  for (const OpRecord& op : net.op_log()) {
    EXPECT_LE(op.max_node_load,
              op.rounds * static_cast<std::int64_t>(net.size()))
        << "phase " << op.phase;
  }
}

// A batch above the 4096-message shard grain makes the tally and the
// delivery split it across the pool.  Whatever the thread count, the batch
// must leave the same inboxes, rounds, words and op log as at one thread.
TEST(Network, ShardedExchangeMatchesOneThread) {
  constexpr int kNodes = 16;
  std::vector<Msg> msgs;
  for (int i = 0; i < 3 * 4096 + 5; ++i) {
    msgs.push_back({(7 * i) % kNodes, (5 * i + i / kNodes) % kNodes, i,
                    Word(std::int64_t{i})});
  }
  const auto run = [&msgs](int threads) {
    const exec::ThreadScope scope(threads);
    Network net(kNodes);
    net.exchange(msgs);
    return net;
  };
  const Network single = run(1);
  ASSERT_GT(single.rounds(), 1);
  for (const int threads : {exec::threads(), 4}) {
    SCOPED_TRACE(threads);
    const Network net = run(threads);
    EXPECT_EQ(net.rounds(), single.rounds());
    EXPECT_EQ(net.words_sent(), single.words_sent());
    ASSERT_EQ(net.op_log().size(), single.op_log().size());
    for (std::size_t k = 0; k < net.op_log().size(); ++k) {
      EXPECT_EQ(net.op_log()[k].phase, single.op_log()[k].phase);
      EXPECT_EQ(net.op_log()[k].rounds, single.op_log()[k].rounds);
      EXPECT_EQ(net.op_log()[k].words, single.op_log()[k].words);
      EXPECT_EQ(net.op_log()[k].max_node_load, single.op_log()[k].max_node_load);
    }
    for (int v = 0; v < kNodes; ++v) {
      const std::vector<Msg>& got = net.inbox(v);
      const std::vector<Msg>& want = single.inbox(v);
      ASSERT_EQ(got.size(), want.size()) << "node " << v;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].src, want[k].src);
        EXPECT_EQ(got[k].dst, want[k].dst);
        EXPECT_EQ(got[k].tag, want[k].tag);
        EXPECT_EQ(got[k].payload, want[k].payload);
      }
    }
  }
}

// --- Broadcast Congested Clique charging ------------------------------------

TEST(Broadcast, ModeStringsRoundTrip) {
  for (const RoutingMode mode : {RoutingMode::kCharged, RoutingMode::kExecuted,
                                 RoutingMode::kBroadcast}) {
    const auto parsed = routing_mode_from_string(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(routing_mode_from_string("smoke-signals").has_value());
}

TEST(Broadcast, ExchangeChargesMaxWordsPerSource) {
  Network net(4);
  net.set_routing_mode(RoutingMode::kBroadcast);
  // Node 0 sends 3 words to distinct destinations: 1 unicast sub-round
  // (all pairs distinct) but 3 broadcast rounds (one word per source/round).
  const std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                              {0, 2, 0, Word(std::int64_t{2})},
                              {0, 3, 0, Word(std::int64_t{3})},
                              {1, 2, 0, Word(std::int64_t{4})}};
  net.exchange(msgs);
  EXPECT_EQ(net.rounds(), 3);
  EXPECT_EQ(net.words_sent(), 4);  // one ledgered word per broadcast
  EXPECT_EQ(net.inbox(2).size(), 2u);  // delivery identical to unicast
}

TEST(Broadcast, LenzenRouteChargesExactScheduleNotSixteenC) {
  const std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{7})}, {1, 0, 0, Word(std::int64_t{8})}};
  Network charged(4);
  charged.lenzen_route(msgs);
  EXPECT_EQ(charged.rounds(), charged.lenzen_constant());
  Network bcast(4);
  bcast.set_routing_mode(RoutingMode::kBroadcast);
  bcast.lenzen_route(msgs);
  EXPECT_EQ(bcast.rounds(), 1);  // every source broadcasts once
  EXPECT_EQ(bcast.inbox(0).size(), charged.inbox(0).size());
}

TEST(Broadcast, SemanticChargeHelpers) {
  Network uni(6);
  uni.charge_all_to_all(2);
  EXPECT_EQ(uni.rounds(), 2);
  EXPECT_EQ(uni.words_sent(), 2 * 6 * 5);
  uni.reset_accounting();
  uni.charge_announcement();
  EXPECT_EQ(uni.rounds(), 1);
  EXPECT_EQ(uni.words_sent(), 5);

  Network bc(6);
  bc.set_routing_mode(RoutingMode::kBroadcast);
  bc.charge_all_to_all(2);
  EXPECT_EQ(bc.rounds(), 2);
  EXPECT_EQ(bc.words_sent(), 2 * 6);
  bc.reset_accounting();
  bc.charge_announcement();
  EXPECT_EQ(bc.rounds(), 1);
  EXPECT_EQ(bc.words_sent(), 1);
  bc.reset_accounting();
  bc.charge_gossip(13, 13 * 6);
  EXPECT_EQ(bc.rounds(), (13 + 5) / 6);
  EXPECT_EQ(bc.words_sent(), 13);
}

TEST(Broadcast, GatherToAllDropsRelayRound) {
  // Gossiping 16 words over 8 nodes: unicast charges ceil(16/8)+1 = 3 rounds
  // and 16*8 delivered words; broadcast charges ceil(16/8) = 2 rounds and 16.
  Network uni(8);
  uni.charge_gossip(16, 16 * 8);
  EXPECT_EQ(uni.rounds(), 3);
  EXPECT_EQ(uni.words_sent(), 16 * 8);
  Network bc(8);
  bc.set_routing_mode(RoutingMode::kBroadcast);
  bc.charge_gossip(16, 16 * 8);
  EXPECT_EQ(bc.rounds(), 2);
  EXPECT_EQ(bc.words_sent(), 16);
}

}  // namespace
}  // namespace lapclique::clique
