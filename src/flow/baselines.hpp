// The two deterministic baselines the paper compares against (§1.1):
//   * Trivial: make all knowledge global in O(n log U) rounds, solve
//     internally at each node.
//   * Ford-Fulkerson: |f*| iterations, each an s-t reachability problem
//     solved in O(n^0.158) rounds via [CKKL+19].
#pragma once

#include <cstdint>

#include "cliquesim/network.hpp"
#include "flow/dinic.hpp"
#include "flow/distributed_sssp.hpp"
#include "graph/digraph.hpp"

namespace lapclique::flow {

struct BaselineResult {
  std::int64_t value = 0;
  std::vector<std::int64_t> flow;
  std::int64_t rounds = 0;
  int iterations = 0;  ///< augmenting iterations (Ford-Fulkerson)
};

/// Gather-everything baseline: every arc (from,to,cap = 3 words, plus log U
/// bits folded into the word) becomes global knowledge, then each node runs
/// Dinic internally.
BaselineResult trivial_max_flow(const graph::Digraph& g, int s, int t,
                                clique::Network& net);

/// Ford-Fulkerson with distributed reachability.
BaselineResult ford_fulkerson_max_flow(const graph::Digraph& g, int s, int t,
                                       clique::Network& net);

}  // namespace lapclique::flow
