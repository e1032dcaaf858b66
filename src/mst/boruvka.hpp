// Minimum spanning forest in the congested clique.
//
// The congested clique model was introduced for exactly this problem
// ([LPSPP05], cited in §2.1).  We implement the Boruvka scheme with honest
// round accounting: each phase, every node broadcasts the minimum-weight
// edge leaving its current component (3 words: endpoints + weight), after
// which every node merges components internally; O(log n) phases.  (Lotker
// et al.'s O(log log n) merging is out of scope for this library; Boruvka is
// the standard practical baseline and uses only the Network's bulk
// charges.)
//
// Ties are broken by edge id, so the result is deterministic and unique.
#pragma once

#include <cstdint>
#include <vector>

#include "cliquesim/network.hpp"
#include "cliquesim/run_info.hpp"
#include "graph/graph.hpp"

namespace lapclique::mst {

struct MstResult {
  std::vector<int> edges;  ///< edge ids of the minimum spanning forest
  double total_weight = 0;
  int phases = 0;
  RunInfo run;  ///< empty for the sequential kruskal() oracle
};

/// Boruvka in the clique (works on disconnected graphs: returns a forest).
MstResult boruvka_clique(const graph::Graph& g, clique::Network& net);

/// Sequential oracle (Kruskal with the same tie-break).
MstResult kruskal(const graph::Graph& g);

}  // namespace lapclique::mst
