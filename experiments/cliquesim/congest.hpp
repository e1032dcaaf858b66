// The CONGEST model (§2.1: "nodes can only exchange messages with their
// neighbors in the given network topology") — the substrate of the related
// work the paper compares against in §1.1 ([FGLP+21], [GKKL+18]).
//
// This simulator enforces the topology restriction for real: a message may
// only be sent along an edge of the input graph, one O(log n)-bit word per
// edge direction per round.  It exists so table E10 (experiments/) can show
// measured CONGEST round counts (diameter-bound broadcasts, Bellman-Ford
// SSSP) next to the clique algorithms' counts.
#pragma once

#include <cstdint>
#include <vector>

#include "cliquesim/message.hpp"
#include "graph/graph.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique::clique {

class CongestNetwork {
 public:
  explicit CongestNetwork(const graph::Graph& topology);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }

  /// Observability: report every executed round to `ledger` (primitive
  /// "congest_step").  Same null-ledger contract as Network::set_tracer.
  void set_tracer(obs::RoundLedger* ledger) { tracer_ = ledger; }
  [[nodiscard]] obs::RoundLedger* tracer() const { return tracer_; }

  /// One synchronous round: every message must travel along a topology
  /// edge, and no (ordered) adjacent pair may carry more than one word.
  /// Throws if either restriction is violated.  Delivers into inboxes.
  void step(const std::vector<Msg>& msgs);

  [[nodiscard]] std::vector<Msg> drain_inbox(int node);
  [[nodiscard]] bool adjacent(int u, int v) const;

 private:
  int n_;
  std::int64_t rounds_ = 0;
  obs::RoundLedger* tracer_ = nullptr;
  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<Msg>> inboxes_;
};

struct CongestBfsResult {
  std::vector<int> dist;  ///< hops from the source (-1 unreachable)
  std::int64_t rounds = 0;
};

/// Flooding BFS from `source`: the textbook O(D)-round CONGEST algorithm,
/// executed with real per-edge messages.
CongestBfsResult congest_bfs(const graph::Graph& g, int source);

struct CongestSsspResult {
  std::vector<double> dist;
  std::int64_t rounds = 0;
};

/// Distributed Bellman-Ford on edge weights: each round every node sends
/// its current distance to all neighbors; O(n) rounds worst case (the
/// baseline the sophisticated CONGEST algorithms of §1.1 improve on).
CongestSsspResult congest_bellman_ford(const graph::Graph& g, int source);

}  // namespace lapclique::clique
