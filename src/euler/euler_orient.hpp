// Theorem 1.4: deterministic Eulerian orientation in O(log n log* n) rounds
// in the congested clique.
//
// Implementation follows the paper's proof:
//   1. every node pairs its incident edges internally -> implicit cycle
//      decomposition (each pair is one *occurrence* of the node on a cycle);
//   2. O(log n) contraction levels; per level:
//      (a) deterministic maximal matching on every ring via Cole–Vishkin
//          3-coloring in O(log* n) message rounds [CV86, GPS87];
//          the higher-ID endpoint of every matched edge is marked (<= half
//          marked, never more than 3 consecutive unmarked);
//      (b) marked occurrences probe along the ring (<= 4 relay hops, all
//          probe batches shipped through Lenzen routing [Len13]); probes
//          accumulate the signed cost of the replaced path, so in the
//          cost-aware variant the eventual leader can pick the traversal
//          whose forward cost does not exceed its backward cost (Lemma 4.2);
//   3. each ring bottoms out at a single occurrence holding the whole cycle
//      as a self-link; it decides the orientation;
//   4. the decision is replayed down the contraction tree (charged with the
//      same round cost as the forward pass, per the paper's step 4).
//
// Simulation fidelity: colors, proposals, accepts, and probes are real
// message batches charged through the Network's Lenzen routing (so
// congestion audits see every word).  The Network charges and stores
// nothing, so a receiving occurrence reads its word from the batch it was
// sent in.  Ring bookkeeping (successor tables, path concatenation) is
// simulator scaffolding that a real deployment would keep in per-node
// memory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/graph.hpp"

namespace lapclique::euler {

struct EulerOrientCosts {
  /// Cost of traversing edge e in its stored direction (u -> v); traversing
  /// it backwards counts -cost.  Size must equal num_edges.
  std::vector<double> edge_cost;
  /// If >= 0, the cycle containing this edge is oriented so the edge is
  /// forward (FlowRounding's (t,s) closing edge).
  int forced_forward_edge = -1;
};

struct OrientationResult {
  /// Per edge: +1 = oriented u -> v (as stored), -1 = oriented v -> u.
  std::vector<std::int8_t> orientation;
  int levels = 0;
  std::int64_t rounds = 0;  ///< model rounds charged for this orientation
};

/// How each level selects the occurrences that survive contraction.
enum class MarkingRule {
  /// Deterministic (the theorem): Cole-Vishkin 3-coloring -> maximal
  /// matching -> mark the higher-ID endpoint.  O(log* n) rounds per level,
  /// gaps between marked occurrences <= 3.
  kColeVishkin,
  /// Randomized (the paper's remark after Theorem 1.4): every occurrence
  /// marks itself with probability 1/2, removing the log* n factor; gaps
  /// are O(log n) w.h.p. and probes relay until they land.
  kRandomized,
};

struct EulerOrientOptions {
  MarkingRule marking = MarkingRule::kColeVishkin;
  std::uint64_t seed = 0xE91ECAFEULL;  ///< randomized-variant coin seed
};

/// Requires every vertex degree to be even (throws otherwise).
OrientationResult eulerian_orientation(const graph::Graph& g, clique::Network& net,
                                       const EulerOrientCosts* costs = nullptr,
                                       const EulerOrientOptions& opt = {});

/// Verifies the orientation: in-degree equals out-degree at every vertex.
bool is_eulerian_orientation(const graph::Graph& g,
                             const std::vector<std::int8_t>& orientation);

}  // namespace lapclique::euler
