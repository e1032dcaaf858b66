#include "spectral/expander_decomp.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "spectral/conductance.hpp"
#include "spectral/power_iteration.hpp"

namespace lapclique::spectral {

using graph::Graph;

namespace {

/// Recursion depth past which a cluster is accepted uncertified.
constexpr int kMaxDepth = 64;
/// Rounds charged per call: ceil(n^gamma).
constexpr double kRoundGamma = 0.25;

struct Worker {
  const Graph* g;
  const ExpanderDecompOptions* opt;
  ExpanderDecomposition out;

  void decompose(const std::vector<int>& vertices, int depth) {
    if (vertices.empty()) return;
    if (vertices.size() == 1) {
      emit_cluster(vertices, 0.0);
      return;
    }
    const Graph sub = g->induced_subgraph(vertices);

    // Split by connected components first.
    const graph::Components comps = graph::connected_components(sub);
    if (comps.count > 1) {
      std::vector<std::vector<int>> parts(static_cast<std::size_t>(comps.count));
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        parts[static_cast<std::size_t>(comps.comp[i])].push_back(vertices[i]);
      }
      for (const auto& p : parts) decompose(p, depth);
      return;
    }
    if (sub.num_edges() == 0) {
      // Isolated vertices inside a "component" cannot happen (count==1 and
      // >=2 vertices implies edges), but guard anyway.
      for (int v : vertices) emit_cluster({v}, 0.0);
      return;
    }

    PowerIterationOptions popt;
    popt.iterations = opt->power_iterations;
    popt.deterministic_salt = 0x5eedULL + static_cast<std::uint64_t>(depth);
    const FiedlerEstimate fe = fiedler_estimate(sub, popt);

    const bool certified = fe.lambda2 / 2.0 >= opt->phi;
    if (certified || depth >= kMaxDepth) {
      emit_cluster(vertices, fe.lambda2);
      return;
    }

    const SweepCut cut = best_sweep_cut(sub, fe.vector);
    if (cut.side.empty() || cut.side.size() >= vertices.size()) {
      emit_cluster(vertices, fe.lambda2);  // degenerate sweep; accept as-is
      return;
    }
    std::vector<char> in_side(vertices.size(), 0);
    for (int local : cut.side) in_side[static_cast<std::size_t>(local)] = 1;
    std::vector<int> left;
    std::vector<int> right;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      (in_side[i] != 0 ? left : right).push_back(vertices[i]);
    }
    decompose(left, depth + 1);
    decompose(right, depth + 1);
  }

  void emit_cluster(const std::vector<int>& vertices, double lambda2) {
    ExpanderCluster c;
    c.vertices = vertices;
    c.lambda2_estimate = lambda2;
    c.conductance_certificate = lambda2 / 2.0;
    out.clusters.push_back(std::move(c));
  }
};

}  // namespace

ExpanderDecomposition expander_decompose(const Graph& g,
                                         const ExpanderDecompOptions& opt,
                                         clique::Network* net) {
  if (!(opt.phi > 0)) throw std::invalid_argument("expander_decompose: phi > 0");
  Worker w;
  w.g = &g;
  w.opt = &opt;
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  w.decompose(all, 0);

  // Index clusters and find crossing edges.
  w.out.cluster_of.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t c = 0; c < w.out.clusters.size(); ++c) {
    for (int v : w.out.clusters[c].vertices) {
      w.out.cluster_of[static_cast<std::size_t>(v)] = static_cast<int>(c);
    }
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    if (w.out.cluster_of[static_cast<std::size_t>(ed.u)] !=
        w.out.cluster_of[static_cast<std::size_t>(ed.v)]) {
      w.out.crossing_edges.push_back(e);
    }
  }

  if (net != nullptr) {
    // CS20 round-cost shape: eps^{-O(1)} n^{O(gamma)} per decomposition.
    const auto rounds = static_cast<std::int64_t>(
        std::ceil(std::pow(std::max(2, g.num_vertices()), kRoundGamma)));
    net->charge(rounds);
  }
  return w.out;
}

}  // namespace lapclique::spectral
