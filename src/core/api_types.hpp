// lapclique — public API result types.
//
// Every report carries a `lapclique::RunInfo run` member (rounds, words,
// per-phase breakdown, fallback flags), so callers and the CLI format all
// results the same way.  Subsystem-level reports (CliqueSolveReport, the IPM
// reports, MstResult) are defined next to their algorithms and re-exported
// here; the facade-only reports are defined below.
//
// Include this header when you only consume result structs; include
// core/api.hpp for the entry points themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "cliquesim/run_info.hpp"
#include "euler/flow_round.hpp"
#include "flow/approx_maxflow.hpp"
#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "flow/mincost_maxflow.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "mst/boruvka.hpp"
#include "solver/clique_laplacian.hpp"
#include "solver/resistance.hpp"
#include "spectral/sparsify.hpp"

namespace lapclique {

using graph::Digraph;
using graph::Graph;

/// Theorem 3.3: deterministic spectral sparsifier (known to every node).
struct SparsifyReport {
  Graph h;
  spectral::SparsifyStats stats;
  RunInfo run;
};

/// Theorem 1.4: Eulerian orientation of an even-degree graph.
struct OrientationReport {
  std::vector<std::int8_t> orientation;  ///< +1: u->v, -1: v->u
  RunInfo run;
  int levels = 0;
};

/// Lemma 4.2: round a Delta-granular fractional s-t flow to integral.
struct RoundFlowReport {
  graph::Flow flow;
  RunInfo run;
  int phases = 0;  ///< rounding phases (one per granularity halving)
};

}  // namespace lapclique
