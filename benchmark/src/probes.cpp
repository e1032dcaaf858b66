// Per-layer probes: each times one public call on a canonical seeded
// instance, so a traced run of any workload reports the same per-layer
// numbers.  README.md lists which end-to-end metric each one should move.
#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cliquesim/network.hpp"
#include "euler/euler_orient.hpp"
#include "exec/pool.hpp"
#include "flow/electrical.hpp"
#include "graph/laplacian.hpp"
#include "graph/rng.hpp"
#include "linalg/backend.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/round_ledger.hpp"
#include "serve/client.hpp"
#include "serve/frontend.hpp"
#include "serve/server.hpp"
#include "solver/clique_laplacian.hpp"
#include "spectral/expander_decomp.hpp"
#include "spectral/sparsify.hpp"
#include "workloads.hpp"

namespace lapbench {

namespace lc = lapclique;

namespace {

class Probes {
 public:
  Probes(std::uint64_t seed, Tracer* tracer) : seed_(seed), t_(tracer) {}

  void lap();
  void serve();
  void maxflow();
  void mincost();
  void euler();

  std::vector<Metric> out;

 private:
  /// Median ms of `reps` calls of f, each in its own span.
  template <class F>
  double timed(const char* name, const char* layer, int reps, F&& f) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      Span span(t_, name, layer);
      f();
      ms.push_back(span.stop());
    }
    return median(ms);
  }

  void add(const std::string& name, double value, const char* unit,
           const char* better = "lower", std::int64_t samples = 1) {
    out.push_back({name, value, unit, better, samples});
  }

  /// Electrical-solver cost on one IPM system and the share of an IPM run it
  /// explains when every solve refactors.
  void electrical(const std::string& prefix, int n,
                  const std::vector<lc::flow::ElectricalEdge>& edges, int s, int t,
                  int solves, double run_ms);

  std::uint64_t seed_;
  Tracer* t_;
};

void Probes::lap() {
  Span group(t_, "probe.lap_solve_sparse", "harness");
  const lc::graph::Graph g = lap_graph(seed_, 0);
  const int n = g.num_vertices();
  const std::vector<double> b = rhs_vector(seed_, "lap_solve_sparse", 0, n);

  lc::linalg::CsrMatrix lg;
  const double laplacian_ms =
      timed("graph::laplacian", "graph", 10, [&] { lg = lc::graph::laplacian(g); });
  add("graph.laplacian_ms", laplacian_ms, "ms", "lower", 10);

  const lc::spectral::SparsifyOptions sopt;
  add("spectral.expander_decomp_ms",
      timed("spectral::expander_decompose", "spectral", 3,
            [&] { (void)lc::spectral::expander_decompose(g, sopt.decomp); }),
      "ms", "lower", 3);
  lc::spectral::SparsifyResult sp;
  const double sparsify_ms = timed("spectral::deterministic_sparsify", "spectral", 3,
                                   [&] { sp = lc::spectral::deterministic_sparsify(g, sopt); });
  add("spectral.sparsify_ms", sparsify_ms, "ms", "lower", 3);
  add("spectral.sparsifier_edges", sp.h.num_edges(), "count");
  add("spectral.levels_used", sp.stats.levels_used, "count");

  const lc::linalg::CsrMatrix lh = lc::graph::laplacian(sp.h);
  add("linalg.rcm_ms",
      timed("linalg::rcm_ordering", "linalg", 5, [&] { (void)lc::linalg::rcm_ordering(lh); }),
      "ms", "lower", 5);
  lc::linalg::BackendLaplacianFactor f;
  const double factor_ms = timed("linalg::BackendLaplacianFactor::factor", "linalg", 3,
                                 [&] { f = lc::linalg::BackendLaplacianFactor::factor(lh); });
  add("linalg.factor_ms", factor_ms, "ms", "lower", 3);
  const auto fill = static_cast<double>(f.stats().fill_nnz);
  add("linalg.factor_fill_nnz", fill, "count");
  const double fsolve_ms = timed("linalg::BackendLaplacianFactor::solve", "linalg", 20,
                                 [&] { (void)f.solve(b); });
  add("linalg.factor_solve_us", fsolve_ms * 1e3, "us", "lower", 20);
  // Forward + backward sweep, 8-byte value + 4-byte index per factor entry.
  add("linalg.solve_gbps_computed", 2.0 * fill * 12.0 / (fsolve_ms * 1e-3) / 1e9, "GB/s",
      "higher", 20);
  add("linalg.matvec_us",
      timed("linalg::CsrMatrix::multiply", "linalg", 50, [&] { (void)lg.multiply(b); }) * 1e3,
      "us", "lower", 50);

  const lc::solver::LaplacianSolverOptions opt;
  std::unique_ptr<lc::solver::LaplacianSolver> s;
  const double construct_ms = timed("solver::LaplacianSolver()", "solver", 3, [&] {
    s = std::make_unique<lc::solver::LaplacianSolver>(g, opt);
  });
  add("solver.construct_ms", construct_ms, "ms", "lower", 3);
  lc::solver::LaplacianSolveStats st;
  const double solve_ms = timed("solver::LaplacianSolver::solve", "solver", 5,
                                [&] { (void)s->solve(b, kLapEps, &st); });
  add("solver.solve_ms", solve_ms, "ms", "lower", 5);
  add("solver.range_est_ms_derived",
      construct_ms - 2 * laplacian_ms - sparsify_ms - factor_ms, "ms");
  add("linalg.chebyshev_iterations", st.chebyshev_iterations, "count");
  add("solver.restarts", st.restarts, "count");
  add("solver.exact_fallbacks", st.exact_fallback ? 1 : 0, "count");

  lc::obs::RoundLedger ledger;
  lc::clique::Network net(n);
  net.set_tracer(&ledger);
  std::unique_ptr<lc::solver::CliqueLaplacianSolver> cs;
  {
    Span span(t_, "solver::CliqueLaplacianSolver()", "solver");
    cs = std::make_unique<lc::solver::CliqueLaplacianSolver>(g, opt, net);
  }
  const std::size_t ops_before = net.op_log().size();
  constexpr int kSolves = 5;
  const double clique_solve_ms = timed("solver::CliqueLaplacianSolver::solve", "solver",
                                       kSolves, [&] { (void)cs->solve(b, kLapEps); });
  add("solver.net_charge_ms_derived", clique_solve_ms - solve_ms, "ms");
  add("solver.rounds.construct",
      ledger.rounds_in("solver/sparsify") + ledger.rounds_in("solver/gather_sparsifier") +
          ledger.rounds_in("solver/range_estimation"),
      "rounds");
  add("solver.rounds.solve",
      static_cast<double>(ledger.rounds_in("solver/chebyshev")) / kSolves, "rounds");
  add("cliquesim.ops_per_solve",
      static_cast<double>(net.op_log().size() - ops_before) / kSolves, "count");
}

void Probes::serve() {
  Span group(t_, "probe.serve_mixed", "harness");
  const lc::graph::Graph g = serve_graph(seed_);
  const ServeRequests q = serve_requests(seed_, g);

  const lc::linalg::CsrMatrix lh =
      lc::graph::laplacian(lc::spectral::deterministic_sparsify(g).h);
  add("linalg.dense_factor_ms",
      timed("linalg::BackendLaplacianFactor::factor", "linalg", 5,
            [&] { (void)lc::linalg::BackendLaplacianFactor::factor(lh); }),
      "ms", "lower", 5);

  lc::serve::ServerOptions sopt;
  sopt.cache_capacity = 4;
  lc::serve::Server server(sopt);
  (void)server.handle(q.load);
  std::size_t k = 0;
  add("serve.handle_ms.cold",
      timed("serve::Server::handle[cold]", "serve", 5,
            [&] { (void)server.handle(q.cold[k++ % q.cold.size()]); }),
      "ms", "lower", 5);
  std::string hit_body = server.handle(q.hit[0]);
  const double hit_ms = timed("serve::Server::handle[hit]", "serve", 30,
                              [&] { (void)server.handle(q.hit[k++ % q.hit.size()]); });
  add("serve.handle_ms.hit", hit_ms, "ms", "lower", 30);
  add("serve.handle_ms.resistance_batch",
      timed("serve::Server::handle[batch]", "serve", 20,
            [&] { (void)server.handle(q.batch[k++ % q.batch.size()]); }),
      "ms", "lower", 20);
  add("serve.json_parse_us",
      timed("obs::json::parse", "serve", 50, [&] { (void)json::parse(q.hit[0]); }) * 1e3,
      "us", "lower", 50);
  const json::Value response = json::parse(hit_body);
  add("serve.json_dump_us",
      timed("obs::json::Value::dump", "serve", 50, [&] { (void)response.dump(); }) * 1e3,
      "us", "lower", 50);

  std::exception_ptr runner_error;
  {
    lc::serve::Server sock_server(sopt);
    lc::serve::FrontendOptions fopt;
    fopt.workers = 2;
    lc::serve::Frontend frontend(sock_server, fopt);
    const int port = frontend.listen();
    std::thread runner([&] {
      try {
        frontend.run();
      } catch (...) {
        runner_error = std::current_exception();
      }
    });
    // Drains and joins the frontend on every exit path, exceptions included.
    struct Drain {
      lc::serve::Server& server;
      std::thread& runner;
      ~Drain() {
        server.begin_drain();
        runner.join();
      }
    } drain{sock_server, runner};
    {
      lc::serve::Client client(port);
      (void)client.call(q.load);
      (void)client.call(q.hit[0]);
      const double sock_ms = timed("serve::Client::call[hit]", "serve", 100,
                                   [&] { (void)client.call(q.hit[k++ % q.hit.size()]); });
      add("serve.socket_overhead_ms_derived", sock_ms - hit_ms, "ms");
    }
    // Closed-loop hit throughput at 1 and 2 connections.
    auto rate = [&](int conns) {
      Span span(t_, "probe.serve_rate", "harness");
      std::atomic<std::int64_t> done{0};
      std::atomic<bool> failed{false};
      const auto start = Clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&, c] {
          try {
            lc::serve::Client client(port);
            for (std::size_t i = static_cast<std::size_t>(c);
                 ms_between(start, Clock::now()) < 500.0; i += 2) {
              (void)client.call(q.hit[i % q.hit.size()]);
              done.fetch_add(1);
            }
          } catch (const std::exception&) {
            failed = true;
          }
        });
      }
      for (std::thread& th : clients) th.join();
      if (failed) throw std::runtime_error("serve probe: a client call failed");
      return static_cast<double>(done.load()) / (ms_between(start, Clock::now()) / 1000.0);
    };
    const double rps1 = rate(1);
    const double rps2 = rate(2);
    add("serve.conn2_efficiency", rps2 / (2.0 * rps1), "ratio", "higher");
  }  // drained and joined
  if (runner_error != nullptr) std::rethrow_exception(runner_error);
}

void Probes::electrical(const std::string& prefix, int n,
                        const std::vector<lc::flow::ElectricalEdge>& edges, int s, int t,
                        int solves, double run_ms) {
  std::unique_ptr<lc::flow::ElectricalSolver> es;
  const double ctor_ms = timed("flow::ElectricalSolver()", "flow", 10, [&] {
    es = std::make_unique<lc::flow::ElectricalSolver>(n, edges);
  });
  std::vector<double> chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(s)] = -1.0;
  chi[static_cast<std::size_t>(t)] = 1.0;
  const double pot_ms = timed("flow::ElectricalSolver::potentials", "flow", 20,
                              [&] { (void)es->potentials(chi); });
  add(prefix + "electrical_ctor_ms", ctor_ms, "ms", "lower", 10);
  add(prefix + "electrical_potentials_ms", pot_ms, "ms", "lower", 20);
  add(prefix + "refactor_share_derived", solves * (ctor_ms + pot_ms) / run_ms, "fraction");
}

void Probes::maxflow() {
  Span group(t_, "probe.maxflow_ipm", "harness");
  const lc::exec::ThreadScope threads(1);
  const FlowInstance inst = maxflow_instance(seed_, 0);
  const int n = inst.g.num_vertices();
  const int s = 0;
  const int t = n - 1;
  lc::clique::Network net(n);
  Span run(t_, "flow::max_flow_clique", "flow");
  const lc::flow::MaxFlowIpmReport rep =
      lc::flow::max_flow_clique(inst.g, s, t, net, maxflow_options(inst.oracle_value));
  const double run_ms = run.stop();
  add("flow.maxflow.ipm_iterations", rep.ipm_iterations, "count");
  add("flow.maxflow.laplacian_solves", rep.laplacian_solves, "count");
  add("flow.maxflow.boosting_steps", rep.boosting_steps, "count");
  add("flow.maxflow.finishing_paths", rep.finishing_augmenting_paths, "count");
  add("flow.maxflow.fallbacks", rep.run.used_fallback ? 1 : 0, "count");

  // Algorithm 2's initial graph (flow/maxflow_ipm.hpp): each arc (u,v) of
  // capacity c becomes (u,v), (s,v), (u,t), plus m preconditioning (t,s)
  // edges of capacity 2U; at f = 0 an edge of capacity c has resistance 2/c^2.
  std::vector<lc::flow::ElectricalEdge> edges;
  for (const lc::graph::Arc& a : inst.g.arcs()) {
    if (a.to == s || a.from == t) continue;
    const double r = 2.0 / static_cast<double>(a.cap * a.cap);
    edges.push_back({a.from, a.to, r});
    edges.push_back({s, a.to, r});
    edges.push_back({a.from, t, r});
  }
  const double cap2u = 2.0 * static_cast<double>(inst.g.max_capacity());
  for (int j = 0; j < inst.g.num_arcs(); ++j) edges.push_back({t, s, 2.0 / (cap2u * cap2u)});
  electrical("flow.maxflow.", n, edges, s, t, rep.laplacian_solves, run_ms);
}

void Probes::mincost() {
  Span group(t_, "probe.mincost_ipm", "harness");
  const lc::exec::ThreadScope threads(1);
  const MinCostInstance inst = mincost_instance(seed_, 0);
  lc::clique::Network net(inst.g.num_vertices());
  Span run(t_, "flow::min_cost_flow_clique", "flow");
  const lc::flow::MinCostIpmReport rep =
      lc::flow::min_cost_flow_clique(inst.g, inst.sigma, net, mincost_options());
  const double run_ms = run.stop();
  add("flow.mincost.ipm_iterations", rep.ipm_iterations, "count");
  add("flow.mincost.laplacian_solves", rep.laplacian_solves, "count");
  add("flow.mincost.perturbations", rep.perturbations, "count");
  add("flow.mincost.finishing_paths", rep.finishing_paths, "count");
  add("flow.mincost.fallbacks", rep.run.used_fallback ? 1 : 0, "count");

  // Algorithm 7's bipartite lift without v_aux: P = vertices, Q = one vertex
  // per arc, edges (u, e_uv) and (v, e_uv), plus the v0 star of Algorithm 6.
  // Initial f = 1/2 gives resistance 1/f^2 = 4 on the bipartite edges.
  const int np = inst.g.num_vertices();
  const int nq = inst.g.num_arcs();
  const int v0 = np + nq;
  std::vector<lc::flow::ElectricalEdge> edges;
  for (int a = 0; a < nq; ++a) {
    edges.push_back({inst.g.arc(a).from, np + a, 4.0});
    edges.push_back({inst.g.arc(a).to, np + a, 4.0});
  }
  for (int u = 0; u < np; ++u) edges.push_back({v0, u, 1.0});
  electrical("flow.mincost.", v0 + 1, edges, 0, v0, rep.laplacian_solves, run_ms);
}

void Probes::euler() {
  Span group(t_, "probe.euler_orient", "harness");
  const lc::exec::ThreadScope threads(2);
  const lc::graph::Graph g = euler_graph(seed_, 0);
  const int n = g.num_vertices();
  lc::clique::Network net(n);
  net.set_routing_mode(lc::clique::RoutingMode::kExecuted);
  lc::euler::OrientationResult res;
  {
    Span span(t_, "euler::eulerian_orientation", "euler");
    res = lc::euler::eulerian_orientation(g, net);
  }
  add("euler.levels", res.levels, "count");

  // One seeded batch with the orientation's mean words per network op.
  const std::int64_t words =
      net.words_sent() / std::max<std::int64_t>(1, static_cast<std::int64_t>(net.op_log().size()));
  lc::graph::SplitMix64 rng(derive_seed(seed_, "euler_orient.batch", 0));
  std::vector<lc::clique::Msg> msgs(static_cast<std::size_t>(words));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    msgs[i].dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    msgs[i].payload = lc::clique::Word(static_cast<std::int64_t>(i));
  }
  auto per_word = [&](const char* name, lc::clique::RoutingMode mode, auto&& send) {
    lc::clique::Network bn(n);
    bn.set_routing_mode(mode);
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      Span span(t_, name, "cliquesim");
      send(bn);
      ms.push_back(span.stop());
      for (int v = 0; v < n; ++v) (void)bn.drain_inbox(v);
    }
    return median(ms) * 1e6 / static_cast<double>(words);
  };
  add("cliquesim.lenzen_executed_ns_per_word",
      per_word("clique::Network::lenzen_route", lc::clique::RoutingMode::kExecuted,
               [&](lc::clique::Network& bn) { bn.lenzen_route(msgs); }),
      "ns/word", "lower", 5);
  add("cliquesim.exchange_ns_per_word",
      per_word("clique::Network::exchange", lc::clique::RoutingMode::kCharged,
               [&](lc::clique::Network& bn) { bn.exchange(msgs); }),
      "ns/word", "lower", 5);
}

}  // namespace

std::vector<Metric> run_layer_probes(std::uint64_t seed, Tracer* tracer) {
  Probes p(seed, tracer);
  p.lap();
  p.serve();
  p.maxflow();
  p.mincost();
  p.euler();
  return std::move(p.out);
}

}  // namespace lapbench
