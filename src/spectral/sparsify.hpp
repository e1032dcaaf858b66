// Deterministic spectral sparsification (Theorem 3.3, after [CGLN+20]).
//
// Pipeline per binary weight class:
//   level i:  expander-decompose G_i  ->  for every cluster, replace the
//   induced expander by a deterministic sparsifier of its product demand
//   graph;  the crossing edges become G_{i+1}.  At most 2*ceil(log2(m)) + 4
//   levels; any edges left past the cap are added verbatim (exact for those edges, so
//   soundness is preserved).
//
// The result is a graph H on V(G), |E(H)| = O(n log n log U), L_H ~ L_G, and
// in the congested clique H is made globally known by one gather (the
// solver does that; Theorem 3.3's "at the end H is known to every node").
#pragma once

#include <cstdint>

#include "cliquesim/network.hpp"
#include "graph/graph.hpp"
#include "spectral/expander_decomp.hpp"

namespace lapclique::spectral {

struct SparsifyOptions {
  ExpanderDecompOptions decomp;
};

struct SparsifyStats {
  int weight_classes = 0;
  int levels_used = 0;
  int clusters_total = 0;
  int verbatim_edges = 0;  ///< edges past the level cap, copied as-is
};

struct SparsifyResult {
  graph::Graph h;
  SparsifyStats stats;
};

/// Deterministic spectral sparsifier of a positively weighted graph.
/// If `net` is non-null, charges the model round cost of each level
/// (decomposition + one degree-broadcast round).
SparsifyResult deterministic_sparsify(const graph::Graph& g,
                                      const SparsifyOptions& opt = {},
                                      clique::Network* net = nullptr);

}  // namespace lapclique::spectral
