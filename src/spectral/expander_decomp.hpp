// Deterministic expander decomposition (interface of Theorem 3.2 [CS20]).
//
// SUBSTITUTION (DESIGN.md §3): Chang–Saranurak's CONGEST construction is a
// cut-matching-game tower far beyond reproduction scope; we implement the
// classic deterministic recursive spectral bisection instead:
//
//   decompose(S):
//     per connected component:
//       estimate the Fiedler pair of the induced subgraph (deterministic
//       power iteration);
//       if lambda_2/2 >= phi  ->  S is a certified phi-expander cluster
//         (Cheeger: Phi >= lambda_2 / 2);
//       else take the best Fiedler sweep cut and recurse on both sides.
//
// The output contract matches Theorem 3.2: a partition into clusters, each
// carrying a conductance certificate, plus the list of crossing edges.
// Round accounting charges ceil(n^gamma) rounds per call, the shape of the
// CS20 bound eps^{-O(1)} n^{O(gamma)}.
#pragma once

#include <cstdint>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/graph.hpp"

namespace lapclique::spectral {

struct ExpanderCluster {
  std::vector<int> vertices;      ///< global vertex ids
  double lambda2_estimate = 0;    ///< of the induced subgraph (0 for singletons)
  double conductance_certificate = 0;  ///< lambda2/2 (Cheeger lower bound)
};

struct ExpanderDecomposition {
  std::vector<ExpanderCluster> clusters;
  std::vector<int> crossing_edges;  ///< edge ids of G crossing the partition
  /// cluster index per vertex
  std::vector<int> cluster_of;
};

struct ExpanderDecompOptions {
  double phi = 0.1;
  int power_iterations = 150;
};

/// Decomposes G (recursion depth at most 64).  If `net` is non-null, charges
/// the model round cost ceil(n^{1/4}).
ExpanderDecomposition expander_decompose(const graph::Graph& g,
                                         const ExpanderDecompOptions& opt,
                                         clique::Network* net = nullptr);

}  // namespace lapclique::spectral
