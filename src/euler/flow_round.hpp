// FlowRounding (Algorithm 1, [Coh95]) in the congested clique (Lemma 4.2):
// rounds a Delta-granular fractional flow to an integral one, never
// decreasing the flow value, and — when a cost function is supplied — never
// increasing the cost.  Runs log(1/Delta) Eulerian-orientation phases, i.e.
// O(log n log* n log(1/Delta)) model rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/digraph.hpp"

namespace lapclique::euler {

struct FlowRoundingOptions {
  /// 1/Delta must be a power of two; flow values must be integer multiples
  /// of Delta (values are snapped to the Delta grid first; the snap must
  /// move no value by more than 1e-6 or the call throws).
  double delta = 1.0 / (1 << 20);
  bool use_costs = false;  ///< apply the cost-aware traversal rule
};

struct FlowRoundingResult {
  graph::Flow flow;       ///< integral per-arc flow
  std::int64_t rounds = 0;
  int phases = 0;
};

/// Rounds `f` on digraph `g` with respect to source s / sink t.
FlowRoundingResult round_flow(const graph::Digraph& g, const graph::Flow& f,
                              int s, int t, clique::Network& net,
                              const FlowRoundingOptions& opt = {});

}  // namespace lapclique::euler
