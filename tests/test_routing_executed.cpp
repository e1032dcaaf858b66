// Executed routing mode: the deterministic spread/deliver schedule, with
// per-sub-round bandwidth verification baked into the scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "cliquesim/network.hpp"
#include "euler/euler_orient.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "test_seed.hpp"

namespace lapclique::clique {
namespace {

std::vector<Msg> random_batch(int n, int count, std::uint64_t seed) {
  graph::SplitMix64 rng(seed);
  std::vector<Msg> msgs;
  for (int i = 0; i < count; ++i) {
    const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (d == s) d = (d + 1) % n;
    msgs.push_back(Msg{s, d, static_cast<std::int64_t>(i),
                       Word(static_cast<std::int64_t>(rng.next()))});
  }
  return msgs;
}

/// A batch built against the executed schedule: n in [2, 40], one source
/// and one destination loaded above n, repeated (src, dst) pairs whose
/// copies differ in tag and payload, and self-messages.
std::vector<Msg> adversarial_batch(std::uint64_t seed, int& n) {
  graph::SplitMix64 rng(seed);
  n = 2 + static_cast<int>(rng.next_below(39));
  const auto node = [&rng, n] {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  std::vector<Msg> msgs;
  const auto send = [&](int s, int d) {
    msgs.push_back(Msg{s, d, static_cast<std::int64_t>(rng.next_below(8)),
                       Word(static_cast<std::int64_t>(rng.next()))});
  };
  const int hot_src = node();
  for (int k = 0, load = n * (1 + node() % 4) + node(); k < load; ++k) {
    send(hot_src, node());
  }
  const int hot_dst = node();
  for (int k = 0, load = n * (1 + node() % 3) + node(); k < load; ++k) {
    send(node(), hot_dst);
  }
  for (int p = 0; p < n; ++p) {
    const int s = node();
    const int d = node();
    for (int r = 0, reps = 1 + node() % 6; r < reps; ++r) send(s, d);
  }
  for (int k = 0; k < n; ++k) {
    const int v = node();
    send(v, v);
  }
  return msgs;
}

TEST(ExecutedRouting, AdversarialBatchesChargeExactRounds) {
  // Exact executed rounds, not bounds: a schedule rewrite must reproduce
  // every value.  Fixed seeds, so LAPCLIQUE_TEST_SEED cannot move them.
  const std::int64_t expected[] = {16, 10, 14, 12, 11, 12, 13, 13, 13, 12, 13, 13,
                                   12, 13, 10, 13, 15, 14, 12, 15, 14, 16, 15, 13};
  for (std::uint64_t seed = 0; seed < std::size(expected); ++seed) {
    int n = 0;
    const std::vector<Msg> msgs = adversarial_batch(seed, n);
    Network net(n);
    net.set_routing_mode(RoutingMode::kExecuted);
    net.lenzen_route(msgs);
    EXPECT_EQ(net.rounds(), expected[seed]) << "seed " << seed << ", n " << n;
  }
}

TEST(ExecutedRouting, UnitLoadCostsConstantRounds) {
  // A permutation batch: every node sends one, receives one.
  Network net(16);
  net.set_routing_mode(RoutingMode::kExecuted);
  std::vector<Msg> msgs;
  for (int i = 0; i < 16; ++i) {
    msgs.push_back(Msg{i, (i + 5) % 16, 0, Word(std::int64_t{i})});
  }
  net.lenzen_route(msgs);
  // 4 (sorting) + 1 (spread) + <= a few (deliver).
  EXPECT_LE(net.rounds(), 8);
}

TEST(ExecutedRouting, AllToOneStaysNearTheLoadBound) {
  // Every node sends n messages to node 0: receive load = n*(n-1) -> c = n-1.
  const int n = 12;
  Network net(n);
  net.set_routing_mode(RoutingMode::kExecuted);
  std::vector<Msg> msgs;
  for (int s = 1; s < n; ++s) {
    for (int k = 0; k < n; ++k) {
      msgs.push_back(Msg{s, 0, k, Word(std::int64_t{k})});
    }
  }
  net.lenzen_route(msgs);
  // c = ceil((n-1)*n / n) = n-1; executed rounds should be O(c).
  EXPECT_LE(net.rounds(), 4 * (n - 1) + 8);
}

TEST(ExecutedRouting, OneToAllIsCheap) {
  const int n = 12;
  Network net(n);
  net.set_routing_mode(RoutingMode::kExecuted);
  std::vector<Msg> msgs;
  for (int k = 0; k < 4 * n; ++k) {
    msgs.push_back(Msg{0, 1 + (k % (n - 1)), k, Word(std::int64_t{k})});
  }
  net.lenzen_route(msgs);
  EXPECT_LE(net.rounds(), 4 + 4 + 6);  // sort + spread(<=c=4) + deliver
}

class ExecutedVsCharged : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutedVsCharged, ExecutedRoundsWithinChargedEnvelope) {
  // On realistic batches the greedy executed schedule should not exceed the
  // charged 16c bound.
  const auto msgs = random_batch(20, 300, GetParam());
  Network charged(20);
  charged.lenzen_route(msgs);
  Network executed(20);
  executed.set_routing_mode(RoutingMode::kExecuted);
  executed.lenzen_route(msgs);
  EXPECT_LE(executed.rounds(), charged.rounds()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutedVsCharged,
                         ::testing::Range(test::base_seed(), test::base_seed() + 5));

TEST(ExecutedRouting, EulerOrientationEndToEnd) {
  // The whole Theorem 1.4 pipeline on an executed-routing network: the
  // orientation must be identical to the charged-mode run (the schedule
  // changes only the cost accounting, never message content).
  const graph::Graph g = graph::union_of_random_closed_walks(24, 5, 9, 7);
  clique::Network charged(24);
  const auto a = euler::eulerian_orientation(g, charged);
  clique::Network executed(24);
  executed.set_routing_mode(RoutingMode::kExecuted);
  const auto b = euler::eulerian_orientation(g, executed);
  EXPECT_EQ(a.orientation, b.orientation);
  EXPECT_TRUE(euler::is_eulerian_orientation(g, b.orientation));
  EXPECT_GT(b.rounds, 0);
}

}  // namespace
}  // namespace lapclique::clique
