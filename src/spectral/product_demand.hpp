// Deterministic sparsification of product demand graphs ([CGLN+20], using
// the internal step of [KLPS+16]).
//
// The product demand graph H(d) on k vertices has w(u,v) = d_u * d_v for all
// pairs.  For a phi-expander cluster G', D = (2/|E(G')|) * H(deg_G') is a
// 4/phi^2-approximate sparsifier of G' (Theorem 3.3's per-cluster step); the
// congested clique makes H(d) globally known in one broadcast round, and each
// node then sparsifies it *internally* and deterministically.
//
// Our deterministic construction: group vertices into binary weight classes
// of d; within a class and between each class pair, place a circulant /
// rotation expander whose edge weights are the true products d_u*d_v scaled
// so the class-pair total matches H(d)'s.  Small class pairs are emitted
// exactly.  Quality is certified empirically (tests compute the exact
// generalized condition number vs the dense H(d)).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lapclique::spectral {

/// Sparse deterministic approximation of the product demand graph H(d).
/// `demands` must be positive.  The result has O(k * deg * log(max/min))
/// edges, deg = max(3, ceil(log2(k + 2)) + 1), and the same total weight as
/// H(d) per class pair; class pairs with at most 64 potential edges are
/// emitted exactly.
graph::Graph product_demand_sparsifier(std::span<const double> demands);

/// Dense product demand graph (test oracle; k <= a few hundred).
graph::Graph product_demand_complete(std::span<const double> demands);

}  // namespace lapclique::spectral
