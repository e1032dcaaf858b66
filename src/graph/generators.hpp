// Deterministic workload generators: the graph families used by the tests
// and by the experiment harness (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace lapclique::graph {

// --- structured undirected families -------------------------------------
Graph path(int n);
Graph cycle(int n);
Graph complete(int n);
Graph star(int n);
Graph grid(int rows, int cols);
/// Circulant graph: i ~ i+off (mod n) for each offset.  With offsets
/// {1, 2, 4, ...} these are the deterministic expanders used throughout.
Graph circulant(int n, std::span<const int> offsets);
/// Two complete halves joined by a single edge — the classic low-conductance
/// instance for exercising the expander decomposition.
Graph barbell(int half);
/// A complete graph on `clique_size` vertices with a path of `path_len`
/// extra vertices hanging off vertex 0 — the classic slow-mixing instance
/// (dense core, long tail), adversarial for broadcast/unicast comparisons.
Graph lollipop(int clique_size, int path_len);

/// Barabási–Albert-style preferential attachment: starts from a complete
/// seed on m_per_node+1 vertices; every later vertex attaches to
/// `m_per_node` distinct existing vertices chosen proportionally to degree
/// (deterministic given `seed`).  Produces the heavy-tailed degree
/// sequences the uniform families lack.
Graph barabasi_albert(int n, int m_per_node, std::uint64_t seed);

// --- random undirected families (deterministic seeds) --------------------
Graph random_gnm(int n, int m, std::uint64_t seed);
/// G(n,m) union a random spanning tree, so the result is connected.
Graph random_connected_gnm(int n, int m, std::uint64_t seed);
/// Random d-regular-ish multigraph via the configuration model.
Graph random_regular(int n, int d, std::uint64_t seed);

/// Assigns integer weights in {1..max_weight} (deterministic).
Graph with_random_weights(const Graph& g, std::int64_t max_weight, std::uint64_t seed);

/// Planted-partition (stochastic block) graph: `blocks` communities of
/// `block_size` vertices; each intra-community pair is an edge with
/// probability p_in, each inter-community pair with probability p_out.
/// The canonical workload for expander decomposition / clustering.
Graph planted_partition(int blocks, int block_size, double p_in, double p_out,
                        std::uint64_t seed);

// --- Eulerian (all-even-degree) families ---------------------------------
/// Union of k closed walks of length ~len on n vertices; every vertex ends
/// up with even degree.
Graph union_of_random_closed_walks(int n, int walks, int walk_len, std::uint64_t seed);
/// Every edge doubled, so every degree is even.
Graph doubled(const Graph& g);

// --- directed flow instances ---------------------------------------------
/// Random digraph with capacities in {1..max_cap}; guarantees at least one
/// s-t path (s=0, t=n-1) by embedding a random chain.  Throws
/// std::invalid_argument for m > n^2 - 3n + 3, the distinct arcs n vertices
/// hold with none into s or out of t.
Digraph random_flow_network(int n, int m, std::int64_t max_cap, std::uint64_t seed);
/// Layered DAG flow network, the structured max-flow workload.
Digraph layered_flow_network(int layers, int width, std::int64_t max_cap,
                             std::uint64_t seed);
/// Unit-capacity digraph with costs in {1..max_cost}.  Throws
/// std::invalid_argument for m > n(n - 1), the distinct arcs n vertices hold.
Digraph random_unit_cost_digraph(int n, int m, std::int64_t max_cost,
                                 std::uint64_t seed);

/// A feasible demand vector for a unit-capacity digraph: routes `pairs`
/// unit demands along random directed paths of g (so feasibility is
/// guaranteed); returns sigma with sum zero.
std::vector<std::int64_t> feasible_unit_demands(const Digraph& g, int pairs,
                                                std::uint64_t seed);

}  // namespace lapclique::graph
