#include "spectral/sparsify.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "exec/pool.hpp"
#include "spectral/product_demand.hpp"

namespace lapclique::spectral {

using graph::Edge;
using graph::Graph;

namespace {

/// Sparsifies one (roughly uniform-weight) edge set; appends edges to `h`.
void sparsify_class(const Graph& g, const std::vector<int>& class_edges,
                    const SparsifyOptions& opt, clique::Network* net, Graph& h,
                    SparsifyStats& stats) {
  const int n = g.num_vertices();
  std::vector<int> current = class_edges;

  const int max_levels =
      2 * static_cast<int>(std::ceil(std::log2(std::max(2, g.num_edges())))) + 4;

  for (int level = 0; level < max_levels && !current.empty(); ++level) {
    stats.levels_used = std::max(stats.levels_used, level + 1);

    // Build the level graph, remembering which original edges it carries.
    Graph gi(n);
    for (int e : current) {
      const Edge& ed = g.edge(e);
      gi.add_edge(ed.u, ed.v, ed.w);
    }

    const ExpanderDecomposition dec = [&] {
      LAPCLIQUE_TRACE_SPAN(net != nullptr ? net->tracer() : nullptr,
                           "expander_decomp");
      return expander_decompose(gi, opt.decomp, net);
    }();
    if (net != nullptr) net->charge(1);  // every node broadcasts its degree/ID

    // Per cluster: replace the induced expander by a product-demand
    // sparsifier.  Clusters are independent (pure functions of gi), so they
    // run one per shard; each shard buffers its edges and the buffers are
    // appended to h in cluster-index order, reproducing the sequential edge
    // order bit-for-bit at every thread count.
    struct ClusterOut {
      int counted = 0;  ///< clusters in this shard that produced a subgraph
      std::vector<std::tuple<int, int, double>> edges;
    };
    const auto cluster_work = [&gi, &dec](std::int64_t /*shard*/, std::int64_t b,
                                          std::int64_t e) {
      ClusterOut out;
      for (std::int64_t ci = b; ci < e; ++ci) {
        const ExpanderCluster& c = dec.clusters[static_cast<std::size_t>(ci)];
        if (c.vertices.size() < 2) continue;
        const Graph sub = gi.induced_subgraph(c.vertices);
        if (sub.num_edges() == 0) continue;
        ++out.counted;

        std::vector<double> wdeg(c.vertices.size());
        for (std::size_t i = 0; i < c.vertices.size(); ++i) {
          wdeg[i] = sub.weighted_degree(static_cast<int>(i));
        }
        const double total_w = sub.total_weight();
        if (!(total_w > 0)) continue;

        // Vertices of the cluster that are isolated inside it contribute no
        // demand; product_demand requires positive demands, so drop them.
        std::vector<int> live_local;
        std::vector<double> live_demand;
        for (std::size_t i = 0; i < wdeg.size(); ++i) {
          if (wdeg[i] > 0) {
            live_local.push_back(static_cast<int>(i));
            live_demand.push_back(wdeg[i]);
          }
        }
        if (live_local.size() < 2) continue;

        Graph pd = product_demand_sparsifier(live_demand);
        const double scale = 1.0 / (2.0 * total_w);
        for (const Edge& e2 : pd.edges()) {
          const int gu = c.vertices[static_cast<std::size_t>(
              live_local[static_cast<std::size_t>(e2.u)])];
          const int gv = c.vertices[static_cast<std::size_t>(
              live_local[static_cast<std::size_t>(e2.v)])];
          out.edges.emplace_back(gu, gv, e2.w * scale);
        }
      }
      return out;
    };
    const std::vector<ClusterOut> outs = exec::sharded_map<ClusterOut>(
        static_cast<std::int64_t>(dec.clusters.size()), 1, cluster_work);
    for (const ClusterOut& co : outs) {
      stats.clusters_total += co.counted;
      for (const auto& [gu, gv, w] : co.edges) h.add_edge(gu, gv, w);
    }

    // Crossing edges go to the next level.
    std::vector<int> next;
    next.reserve(dec.crossing_edges.size());
    for (int local_e : dec.crossing_edges) {
      next.push_back(current[static_cast<std::size_t>(local_e)]);
    }
    current = std::move(next);
  }

  // Anything left after the cap is copied verbatim (exact).
  for (int e : current) {
    const Edge& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, ed.w);
    ++stats.verbatim_edges;
  }
}

}  // namespace

SparsifyResult deterministic_sparsify(const Graph& g, const SparsifyOptions& opt,
                                      clique::Network* net) {
  for (const Edge& e : g.edges()) {
    if (!(e.w > 0)) throw std::invalid_argument("sparsify: weights must be positive");
  }
  SparsifyResult out;
  out.h = Graph(g.num_vertices());

  if (g.num_edges() == 0) return out;

  // Binary weight classes (the paper's log U factor).
  std::map<int, std::vector<int>> classes;
  for (int e = 0; e < g.num_edges(); ++e) {
    classes[static_cast<int>(std::floor(std::log2(g.edge(e).w)))].push_back(e);
  }
  out.stats.weight_classes = static_cast<int>(classes.size());

  for (const auto& [cls, edges] : classes) {
    sparsify_class(g, edges, opt, net, out.h, out.stats);
  }
  return out;
}

}  // namespace lapclique::spectral
