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
  bool use_weight_classes = true;
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

/// One batch of edge edits applied to a sparsified graph (the warm-start
/// re-solve path: see docs/CHECKPOINT.md).
struct GraphEdit {
  std::vector<graph::Edge> inserted;
  std::vector<graph::Edge> deleted;
};

struct SparsifierRepairResult {
  graph::Graph h;
  /// The edit was not locally absorbable and the full level pipeline re-ran.
  bool rebuilt = false;
  int edges_added = 0;    ///< verbatim insertions (0 when rebuilt)
  int edges_removed = 0;  ///< verbatim deletions (0 when rebuilt)
};

/// Incrementally repair a sparsifier H of the pre-edit graph into one for
/// `g_new`.  Insertions append verbatim (exact for those edges, the same
/// soundness argument as the level-cap copy).  A deletion is absorbed only
/// when the deleted edge sits in H verbatim; one folded into a cluster
/// sparsifier has no local footprint to subtract, so the pipeline re-runs
/// (`rebuilt = true`).  If `net` is non-null, the local repair charges one
/// announcement round (the edit broadcast); a rebuild charges the full
/// deterministic_sparsify cost.
SparsifierRepairResult repair_sparsifier(const graph::Graph& g_new,
                                         const graph::Graph& h_old,
                                         const GraphEdit& edit,
                                         const SparsifyOptions& opt = {},
                                         clique::Network* net = nullptr);

}  // namespace lapclique::spectral
