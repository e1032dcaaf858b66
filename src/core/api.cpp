#include "core/api.hpp"

#include <memory>
#include <optional>

#include "ckpt/checkpoint.hpp"
#include "euler/euler_orient.hpp"

namespace lapclique {

// Every entry point: build a Network configured by the runtime, run the
// algorithm, snapshot the accounting into report.run.

namespace {

/// The Runtime's checkpoint fields materialized for one flow run: a writer
/// (when a path is configured) and a loaded checkpoint (when resuming).  The
/// objects must outlive the algorithm call, hence this holder.
struct CheckpointSession {
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  std::optional<ckpt::Checkpoint> resumed;

  explicit CheckpointSession(const Runtime& rt) {
    if (rt.checkpoint_path.empty()) return;
    writer = std::make_unique<ckpt::CheckpointWriter>(rt.checkpoint_path,
                                                      rt.checkpoint_every);
    if (rt.resume) resumed = ckpt::load_checkpoint(rt.checkpoint_path);
  }

  [[nodiscard]] ckpt::CheckpointHooks hooks() const {
    ckpt::CheckpointHooks h;
    h.writer = writer.get();
    h.resume = resumed.has_value() ? &*resumed : nullptr;
    return h;
  }
};

}  // namespace

solver::CliqueSolveReport solve_laplacian(const Graph& g, std::span<const double> b,
                                          double eps,
                                          const solver::LaplacianSolverOptions& opt,
                                          const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  return solver::solve_laplacian_clique(g, b, eps, opt, net);
}

SparsifyReport sparsify(const Graph& g, const spectral::SparsifyOptions& opt,
                        const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  SparsifyReport rep;
  spectral::SparsifyResult r = spectral::deterministic_sparsify(g, opt, &net);
  rep.h = std::move(r.h);
  rep.stats = r.stats;
  rep.run.capture(net);
  return rep;
}

OrientationReport eulerian_orientation(const Graph& g, const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  OrientationReport rep;
  const euler::OrientationResult r = euler::eulerian_orientation(g, net);
  rep.orientation = r.orientation;
  rep.levels = r.levels;
  rep.run.capture(net);
  return rep;
}

RoundFlowReport round_flow(const Digraph& g, const graph::Flow& f, int s, int t,
                           const euler::FlowRoundingOptions& opt,
                           const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  RoundFlowReport rep;
  const euler::FlowRoundingResult r = euler::round_flow(g, f, s, t, net, opt);
  rep.flow = r.flow;
  rep.phases = r.phases;
  rep.run.capture(net);
  return rep;
}

flow::MaxFlowIpmReport max_flow(const Digraph& g, int s, int t,
                                const flow::MaxFlowIpmOptions& opt,
                                const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  if (rt.checkpoint_path.empty()) {
    return flow::max_flow_clique(g, s, t, net, opt);
  }
  const CheckpointSession session(rt);
  flow::MaxFlowIpmOptions copt = opt;
  copt.checkpoint = session.hooks();
  return flow::max_flow_clique(g, s, t, net, copt);
}

flow::MinCostIpmReport min_cost_flow(const Digraph& g,
                                     std::span<const std::int64_t> sigma,
                                     const flow::MinCostIpmOptions& opt,
                                     const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  if (rt.checkpoint_path.empty()) {
    return flow::min_cost_flow_clique(g, sigma, net, opt);
  }
  const CheckpointSession session(rt);
  flow::MinCostIpmOptions copt = opt;
  copt.checkpoint = session.hooks();
  return flow::min_cost_flow_clique(g, sigma, net, copt);
}

flow::MinCostMaxFlowReport min_cost_max_flow(const Digraph& g, int s, int t,
                                             const flow::MinCostIpmOptions& opt,
                                             const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  return flow::min_cost_max_flow_clique(g, s, t, net, opt);
}

flow::ApproxMaxFlowReport approx_max_flow(const Graph& g, int s, int t,
                                          const flow::ApproxMaxFlowOptions& opt,
                                          const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  return flow::approx_max_flow_undirected(g, s, t, net, opt);
}

mst::MstResult minimum_spanning_forest(const Graph& g, const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  return mst::boruvka_clique(g, net);
}

solver::ResistanceReport effective_resistance(const Graph& g, int u, int v,
                                              double eps, const Runtime& rt) {
  clique::Network net = make_network(g.num_vertices(), rt);
  return solver::effective_resistance_clique(g, u, v, eps, {}, net);
}

}  // namespace lapclique
