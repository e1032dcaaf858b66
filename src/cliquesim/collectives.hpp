// Collective operations on the congested clique, with model round costs:
//
//   broadcast_one     each node sends one word to everyone          1 round
//   broadcast_many    k words from every node                       k rounds
//   allreduce_*       one word per node, combined associatively     1 round
//   gather_to_all     W total words become global knowledge         ceil(W/n)+1
//
// broadcast/allreduce charge the naive cost (which is already optimal for a
// clique: a node can send its word to all n-1 peers in a single round).
// gather_to_all charges the standard two-step clique gossip: senders spray
// their items evenly across intermediate nodes, then every intermediate
// broadcasts its share; with W total words each node relays ceil(W/n) words,
// so the whole exchange takes ceil(W/n)+1 rounds via [Len13] routing.
//
// Under RoutingMode::kBroadcast the rounds above are unchanged except that
// gather_to_all drops its relay round (a broadcast is heard by everyone, so
// no second spray phase exists), and word counts shrink to one ledgered word
// per broadcast — see Network's charge_* helpers and docs/MODELS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cliquesim/network.hpp"

namespace lapclique::clique {

/// Every node v contributes `values[v]`; afterwards all nodes know all values.
std::vector<double> broadcast_one(Network& net, const std::vector<double>& values);

/// Every node v contributes `values[v]` (vectors may have different lengths);
/// afterwards all nodes know all of them.  Charges max_v |values[v]| rounds.
std::vector<std::vector<Word>> broadcast_many(
    Network& net, const std::vector<std::vector<Word>>& values);

/// Sum/min/max of one double per node, known to all afterwards.
double allreduce_sum(Network& net, const std::vector<double>& values);
double allreduce_max(Network& net, const std::vector<double>& values);
double allreduce_min(Network& net, const std::vector<double>& values);
std::int64_t allreduce_sum_int(Network& net, const std::vector<std::int64_t>& values);
std::int64_t allreduce_max_int(Network& net, const std::vector<std::int64_t>& values);

/// Make `words[v]` (node v's share of a global structure, e.g. sparsifier
/// edges) known to every node.  Returns the concatenation in node order.
std::vector<Word> gather_to_all(Network& net, const std::vector<std::vector<Word>>& words);

}  // namespace lapclique::clique
