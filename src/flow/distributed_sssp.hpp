// Shortest paths / reachability in the congested clique.
//
// SUBSTITUTION (DESIGN.md §3): the paper invokes [CKKL+19] for
// (1+o(1))-approximate weighted directed APSP in O(n^0.158) rounds, which
// rests on distributed fast matrix multiplication.  We compute the answers
// with classical algorithms (Bellman-Ford, BFS) and charge the paper's
// accounting: ceil(n^0.158) rounds per invocation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/digraph.hpp"

namespace lapclique::flow {

/// The [CKKL+19] APSP exponent: every invocation charges ceil(n^0.158)
/// rounds (Theorem 1.3's n^{0.158} term).  Min-cost flow's negative-cycle
/// detection charges the same bound.
inline constexpr double kCkklExponent = 0.158;

struct SsspResult {
  std::vector<double> dist;   ///< +inf when unreachable
  std::vector<int> parent_arc;  ///< arc id entering v on a shortest path (-1 at source)
  std::int64_t rounds_charged = 0;
};

/// Shortest paths from the nearest of `sources` over the arcs marked in
/// `arc_usable`, with per-arc lengths `length` (lengths may be negative as
/// long as no negative cycle is reachable; Bellman-Ford underneath).
SsspResult multi_source_sssp(const graph::Digraph& g,
                             const std::vector<int>& sources,
                             const std::vector<double>& length,
                             const std::vector<char>& arc_usable,
                             clique::Network& net);

/// s-t augmenting path in the residual network of an integral flow; each
/// entry of the result is (arc id, forward?).  Charges one reachability
/// computation.  Returns nullopt if t is unreachable.
std::optional<std::vector<std::pair<int, bool>>> residual_augmenting_path(
    const graph::Digraph& g, const std::vector<std::int64_t>& flow, int s, int t,
    clique::Network& net);

}  // namespace lapclique::flow
