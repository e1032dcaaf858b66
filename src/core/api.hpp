// lapclique — public API.
//
// One include gives a downstream user the paper's four results:
//
//   * lapclique::solve_laplacian   — Theorem 1.1
//   * lapclique::sparsify          — Theorem 3.3
//   * lapclique::eulerian_orientation / round_flow — Theorem 1.4 / Lemma 4.2
//   * lapclique::max_flow          — Theorem 1.2
//   * lapclique::min_cost_flow     — Theorem 1.3
//
// Every entry point returns the answer together with the congested-clique
// accounting block (`report.run` — the quantity the theorems bound), and
// every entry point takes a trailing `lapclique::Runtime` (threads, trace
// sink, fault plan, routing options) that defaults to default_runtime().
// Results are bit-identical for every thread count.
//
// This header carries declarations only; result structs live in
// core/api_types.hpp.  Generators, DIMACS I/O, and the sequential baselines
// are NOT re-exported here — include graph/generators.hpp, io/dimacs.hpp,
// flow/baselines.hpp, ... directly.  See README.md for a quickstart and
// DESIGN.md for the architecture.
#pragma once

#include "core/api_types.hpp"
#include "core/runtime.hpp"

namespace lapclique {

/// Theorem 1.1: solve L_G x = b up to eps in the L_G norm, deterministically,
/// with full congested-clique round accounting.
solver::CliqueSolveReport solve_laplacian(
    const Graph& g, std::span<const double> b, double eps,
    const solver::LaplacianSolverOptions& opt = {},
    const Runtime& rt = default_runtime());

/// Theorem 3.3: deterministic spectral sparsifier (known to every node).
SparsifyReport sparsify(const Graph& g, const spectral::SparsifyOptions& opt = {},
                        const Runtime& rt = default_runtime());

/// Theorem 1.4: Eulerian orientation of an even-degree graph.
OrientationReport eulerian_orientation(const Graph& g,
                                       const Runtime& rt = default_runtime());

/// Lemma 4.2: round a Delta-granular fractional s-t flow to integral.
RoundFlowReport round_flow(const Digraph& g, const graph::Flow& f, int s, int t,
                           const euler::FlowRoundingOptions& opt = {},
                           const Runtime& rt = default_runtime());

/// Theorem 1.2: exact maximum flow.
flow::MaxFlowIpmReport max_flow(const Digraph& g, int s, int t,
                                const flow::MaxFlowIpmOptions& opt = {},
                                const Runtime& rt = default_runtime());

/// Theorem 1.3: exact unit-capacity minimum-cost flow.
flow::MinCostIpmReport min_cost_flow(const Digraph& g,
                                     std::span<const std::int64_t> sigma,
                                     const flow::MinCostIpmOptions& opt = {},
                                     const Runtime& rt = default_runtime());

/// §2.4 remark: min-cost *maximum* s-t flow by binary search over values.
flow::MinCostMaxFlowReport min_cost_max_flow(const Digraph& g, int s, int t,
                                             const flow::MinCostIpmOptions& opt = {},
                                             const Runtime& rt = default_runtime());

/// §1.1 comparison family: (1+eps)-approximate undirected max flow via
/// multiplicative-weights electrical flows.
flow::ApproxMaxFlowReport approx_max_flow(const Graph& g, int s, int t,
                                          const flow::ApproxMaxFlowOptions& opt = {},
                                          const Runtime& rt = default_runtime());

/// [LPSPP05] (the model's founding problem): minimum spanning forest.
mst::MstResult minimum_spanning_forest(const Graph& g,
                                       const Runtime& rt = default_runtime());

/// Effective resistance via one Theorem 1.1 solve.
solver::ResistanceReport effective_resistance(const Graph& g, int u, int v,
                                              double eps = 1e-8,
                                              const Runtime& rt = default_runtime());

}  // namespace lapclique
