// Dinic's maximum flow — the sequential correctness oracle every distributed
// flow result is checked against, the internal solver of the trivial
// "gather everything" baseline (§1.1), and the max-flow IPM's divergence
// fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace lapclique::flow {

struct MaxFlowResult {
  std::int64_t value = 0;
  std::vector<std::int64_t> flow;  ///< per arc of the input digraph
};

MaxFlowResult dinic_max_flow(const graph::Digraph& g, int s, int t);

}  // namespace lapclique::flow
