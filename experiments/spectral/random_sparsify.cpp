#include "spectral/random_sparsify.hpp"

#include <algorithm>
#include <cmath>

#include "graph/rng.hpp"

namespace lapclique::spectral {

using graph::Edge;
using graph::Graph;

Graph random_sparsify(const Graph& g, const RandomSparsifyOptions& opt) {
  const int n = g.num_vertices();
  Graph h(n);
  if (g.num_edges() == 0) return h;

  std::vector<double> wdeg(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) wdeg[static_cast<std::size_t>(v)] = g.weighted_degree(v);

  // Leverage-score proxies first; the sampling pass then consumes the RNG
  // stream in edge order (the determinism anchor).
  const double logn = std::log(std::max(2, n));
  const auto edges = g.edges();
  std::vector<double> prob(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const double score = e.w * (1.0 / wdeg[static_cast<std::size_t>(e.u)] +
                                1.0 / wdeg[static_cast<std::size_t>(e.v)]);
    prob[i] = std::min(1.0, opt.oversampling * logn * score);
  }

  graph::SplitMix64 rng(opt.seed);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (rng.next_double() < prob[i]) h.add_edge(e.u, e.v, e.w / prob[i]);
  }
  return h;
}

}  // namespace lapclique::spectral
