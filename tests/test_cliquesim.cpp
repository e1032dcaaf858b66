#include <gtest/gtest.h>

#include "cliquesim/network.hpp"

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

// The Network holds no messages, so a snapshot is valid right after any
// batch and restores the accounting it copied.
TEST(Network, SnapshotRightAfterLenzenRouteRestores) {
  Network net(4);
  net.set_phase("route");
  net.lenzen_route({{0, 1, 0, Word()}, {0, 2, 0, Word()}, {3, 1, 0, Word()}});
  const NetworkSnapshot snap = net.snapshot();
  net.set_phase("later");
  net.charge(5, 7);
  net.restore(snap);
  EXPECT_EQ(net.rounds(), net.lenzen_constant());
  EXPECT_EQ(net.words_sent(), 3);
  EXPECT_EQ(net.phase(), "route");
  EXPECT_EQ(net.ledger().rounds_by_phase,
            (std::map<std::string, std::int64_t>{{"route", net.lenzen_constant()}}));
  ASSERT_EQ(net.op_log().size(), 1u);
  EXPECT_EQ(net.op_log()[0].max_node_load, 2);
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
  bc.charge_gossip(13);
  EXPECT_EQ(bc.rounds(), (13 + 5) / 6);
  EXPECT_EQ(bc.words_sent(), 13);
}

TEST(Broadcast, GatherToAllDropsRelayRound) {
  // Gossiping 16 words over 8 nodes: unicast charges ceil(16/8)+1 = 3 rounds
  // and 16*8 delivered words; broadcast charges ceil(16/8) = 2 rounds and 16.
  Network uni(8);
  uni.charge_gossip(16);
  EXPECT_EQ(uni.rounds(), 3);
  EXPECT_EQ(uni.words_sent(), 16 * 8);
  Network bc(8);
  bc.set_routing_mode(RoutingMode::kBroadcast);
  bc.charge_gossip(16);
  EXPECT_EQ(bc.rounds(), 2);
  EXPECT_EQ(bc.words_sent(), 16);
}

}  // namespace
}  // namespace lapclique::clique
