#include "tables.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cliquesim/congest.hpp"
#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "flow/baselines.hpp"
#include "flow/dinic.hpp"
#include "flow/ssp_mincost.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "graph/rng.hpp"
#include "linalg/backend.hpp"
#include "linalg/chebyshev.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "solver/laplacian_solver.hpp"
#include "spectral/random_sparsify.hpp"

namespace lapclique::experiments {

namespace {

/// The runtime of every facade call below: `mode` routing, whatever
/// LAPCLIQUE_ROUTING says.  Networks built directly (clique::Network(n)) are
/// already charged and environment-free.
Runtime pinned_runtime(clique::RoutingMode mode = clique::RoutingMode::kCharged) {
  Runtime rt;
  rt.routing_mode = mode;
  return rt;
}

/// e_0 - e_{n-1}: the right-hand side of every Laplacian solve here.
std::vector<double> dipole(int n) {
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b.front() = 1.0;
  b.back() = -1.0;
  return b;
}

}  // namespace

Table e1_eps() {
  Table t{"E1-eps",
          "E1: rounds of one solve vs eps (random_connected_gnm n = 96, m = 384, seed 11).",
          {"eps", "rounds", "rounds / ln(1/eps)"},
          {}};
  const Graph g = graph::random_connected_gnm(96, 384, 11);
  clique::Network net(96);
  const solver::CliqueLaplacianSolver solver(g, {}, net);
  const std::vector<double> b = dipole(96);
  for (const double eps : {1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10}) {
    net.reset_accounting();
    (void)solver.solve(b, eps);
    t.rows.push_back({sci(eps, 0), cell(net.rounds()),
                      fixed(static_cast<double>(net.rounds()) / std::log(1.0 / eps), 2)});
  }
  return t;
}

Table e1_n() {
  Table t{"E1-n",
          "E1: setup plus one solve vs n; the Chebyshev rounds are the per-solve cost "
          "(random_connected_gnm m = 4n, seed 13, eps = 1e-6).",
          {"n", "total rounds", "chebyshev rounds", "chebyshev / n"},
          {}};
  for (const int n : {32, 64, 128, 256, 512}) {
    const Graph g = graph::random_connected_gnm(n, 4 * n, 13);
    clique::Network net(n);
    const solver::CliqueLaplacianSolver solver(g, {}, net);
    const std::int64_t setup = net.rounds();
    net.reset_accounting();
    (void)solver.solve(dipole(n), 1e-6);
    const std::int64_t cheb = net.rounds();
    t.rows.push_back({cell(n), cell(setup + cheb), cell(cheb),
                      fixed(static_cast<double>(cheb) / n, 3)});
  }
  return t;
}

Table e1_routing() {
  Table t{"E1-routing",
          "E1: one solve under each routing mode (random_connected_gnm n = 256, "
          "m = 1024, seed 29, eps = 1e-6).",
          {"routing", "rounds", "words"},
          {}};
  const Graph g = graph::random_connected_gnm(256, 1024, 29);
  for (const clique::RoutingMode mode :
       {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
        clique::RoutingMode::kBroadcast}) {
    const auto rep = solve_laplacian(g, dipole(256), 1e-6, {}, pinned_runtime(mode));
    t.rows.push_back(
        {clique::to_string(mode), cell(rep.run.rounds), cell(rep.run.words)});
  }
  return t;
}

Table e1_u() {
  Table t{"E1-U",
          "E1: setup plus one solve vs the weight range U (random_connected_gnm n = 96, "
          "m = 384, seed 17; weights seed 19; eps = 1e-6).",
          {"U", "rounds"},
          {}};
  for (const std::int64_t u : {1, 16, 256, 4096, 65536}) {
    const Graph g =
        graph::with_random_weights(graph::random_connected_gnm(96, 384, 17), u, 19);
    const auto rep = solve_laplacian(g, dipole(96), 1e-6, {}, pinned_runtime());
    t.rows.push_back({cell(u), cell(rep.run.rounds)});
  }
  return t;
}

Table e2_families() {
  Table t{"E2-families",
          "E2: sparsifier size and exact relative condition number alpha (n <= 64 only) "
          "per graph family (gnm seed 7, circulant offsets 1, 2, 4, 8, 16).",
          {"family", "n", "m", "edges of H", "edges / (n lg n)", "alpha"},
          {}};
  const auto row = [&t](const char* family, const Graph& g) {
    const int n = g.num_vertices();
    const SparsifyReport rep = sparsify(g, {}, pinned_runtime());
    const std::string alpha =
        n <= 64 ? fixed(linalg::generalized_condition_number(graph::laplacian(g),
                                                             graph::laplacian(rep.h)),
                        2)
                : "-";
    t.rows.push_back({family, cell(n), cell(g.num_edges()), cell(rep.h.num_edges()),
                      fixed(rep.h.num_edges() / (n * std::log2(std::max(2, n))), 2),
                      alpha});
  };
  for (const int n : {32, 64, 128, 256}) row("complete", graph::complete(n));
  for (const int n : {32, 64, 128, 256}) {
    row("gnm m=6n", graph::random_connected_gnm(n, 6 * n, 7));
  }
  row("barbell", graph::barbell(24));
  row("circulant d=10", graph::circulant(128, std::vector<int>{1, 2, 4, 8, 16}));
  return t;
}

Table e2_weights() {
  Table t{"E2-weights",
          "E2: sparsifier size vs the weight range U: one binary weight class per "
          "scale (random_connected_gnm n = 64, m = 384, seed 3; weights seed 5).",
          {"U", "edges of H", "weight classes"},
          {}};
  for (const std::int64_t u : {1, 256, 65536}) {
    const Graph g =
        graph::with_random_weights(graph::random_connected_gnm(64, 384, 3), u, 5);
    const SparsifyReport rep = sparsify(g, {}, pinned_runtime());
    t.rows.push_back({cell(u), cell(rep.h.num_edges()), cell(rep.stats.weight_classes)});
  }
  return t;
}

Table e3() {
  Table t{"E3",
          "E3: Eulerian orientation rounds and recursion levels per family (doubled gnm "
          "m = 2n seed 5; closed walks n/8 walks of length 12, seed 9).",
          {"family", "n", "m", "rounds", "levels", "rounds / log2 n", "valid"},
          {}};
  const auto row = [&t](const char* family, const Graph& g) {
    const int n = g.num_vertices();
    clique::Network net(std::max(n, 2));
    const auto r = euler::eulerian_orientation(g, net);
    t.rows.push_back({family, cell(n), cell(g.num_edges()), cell(r.rounds), cell(r.levels),
                      fixed(static_cast<double>(r.rounds) / std::log2(std::max(4, n)), 1),
                      yes(euler::is_eulerian_orientation(g, r.orientation))});
  };
  for (const int n : {16, 64, 256, 1024, 4096}) row("single cycle", graph::cycle(n));
  for (const int n : {64, 256, 1024}) {
    row("circulant d=4", graph::circulant(n, std::vector<int>{1, 2}));
  }
  for (const int n : {64, 256, 1024}) {
    row("doubled gnm", graph::doubled(graph::random_gnm(n, 2 * n, 5)));
  }
  for (const int n : {64, 256}) {
    row("closed walks", graph::union_of_random_closed_walks(n, n / 8, 12, 9));
  }
  row("doubled grid 16x16", graph::doubled(graph::grid(16, 16)));
  row("doubled grid 32x32", graph::doubled(graph::grid(32, 32)));
  return t;
}

Table a1() {
  Table t{"A1",
          "A1: deterministic Cole-Vishkin marking vs the randomized marking of the "
          "Theorem 1.4 remark (closed walks: 24 walks of length 12, seed 7).",
          {"family", "n", "CV rounds", "randomized rounds", "CV levels",
           "randomized levels", "valid"},
          {}};
  const auto row = [&t](const char* family, const Graph& g) {
    const int n = g.num_vertices();
    clique::Network ncv(std::max(n, 2));
    const auto cv = euler::eulerian_orientation(g, ncv);
    clique::Network nr(std::max(n, 2));
    euler::EulerOrientOptions opt;
    opt.marking = euler::MarkingRule::kRandomized;
    const auto rnd = euler::eulerian_orientation(g, nr, nullptr, opt);
    t.rows.push_back({family, cell(n), cell(cv.rounds), cell(rnd.rounds), cell(cv.levels),
                      cell(rnd.levels),
                      yes(euler::is_eulerian_orientation(g, cv.orientation) &&
                          euler::is_eulerian_orientation(g, rnd.orientation))});
  };
  for (const int n : {64, 256, 1024, 4096}) row("cycle", graph::cycle(n));
  for (const int n : {128, 512}) {
    row("circulant d=4", graph::circulant(n, std::vector<int>{1, 2}));
  }
  row("closed walks", graph::union_of_random_closed_walks(256, 24, 12, 7));
  return t;
}

Table e4_delta() {
  Table t{"E4-delta",
          "E4: rounding 48 parallel s-t arcs whose flows are random multiples of "
          "Delta (SplitMix64 seed 99), so every phase has odd arcs.",
          {"1/Delta", "phases", "rounds", "rounds / log2(1/Delta)"},
          {}};
  for (const int k : {2, 4, 8, 12, 16, 20}) {
    Digraph g(2);
    graph::SplitMix64 rng(99);
    graph::Flow f;
    const double delta = 1.0 / static_cast<double>(1LL << k);
    for (int j = 0; j < 48; ++j) {
      g.add_arc(0, 1, 1 << 21, static_cast<std::int64_t>(j % 7));
      f.push_back(static_cast<double>(rng.next_below(1ULL << k)) * delta);
    }
    clique::Network net(2);
    euler::FlowRoundingOptions opt;
    opt.delta = delta;
    opt.use_costs = true;
    const auto r = euler::round_flow(g, f, 0, 1, net, opt);
    t.rows.push_back({cell(1LL << k), cell(r.phases), cell(r.rounds),
                      fixed(static_cast<double>(r.rounds) / k, 2)});
  }
  return t;
}

Table e4_value() {
  Table t{"E4-value",
          "E4: rounding 3/4 of a maximum flow at Delta = 1/4 keeps the flow value "
          "(random_flow_network m = 3n, capacities <= 4, seed 7).",
          {"n", "rounds", "value before", "value after", "value kept"},
          {}};
  for (const int n : {16, 64, 256}) {
    const Digraph g = graph::random_flow_network(n, 3 * n, 4, 7);
    const auto mf = flow::dinic_max_flow(g, 0, n - 1);
    graph::Flow frac(mf.flow.begin(), mf.flow.end());
    for (double& v : frac) v *= 0.75;
    const double before = graph::flow_value(g, frac, 0);
    clique::Network net(n);
    euler::FlowRoundingOptions opt;
    opt.delta = 0.25;
    const auto r = euler::round_flow(g, frac, 0, n - 1, net, opt);
    const double after = graph::flow_value(g, r.flow, 0);
    t.rows.push_back({cell(n), cell(r.rounds), fixed(before, 2), fixed(after, 0),
                      yes(after >= before)});
  }
  return t;
}

Table e5() {
  Table t{"E5",
          "E5: max-flow IPM rounds (iteration_scale 0.02, at most 250 iterations) next to "
          "the trivial and Ford-Fulkerson baselines (random_flow_network seeds 21, 22, "
          "23; layered_flow_network 4 x 5, seed 24).",
          {"instance", "n", "m", "U", "IPM rounds", "trivial rounds", "Ford-Fulkerson rounds",
           "m^(3/7) U^(1/7)", "finish paths", "values equal Dinic's"},
          {}};
  const auto row = [&t](const char* instance, const Digraph& g, int s, int sink) {
    const int n = g.num_vertices();
    const auto oracle = flow::dinic_max_flow(g, s, sink);
    flow::MaxFlowIpmOptions opt;
    opt.iteration_scale = 0.02;
    opt.max_iterations = 250;
    opt.known_value = oracle.value;
    clique::Network net(n);
    const auto ipm = flow::max_flow_clique(g, s, sink, net, opt);
    clique::Network nt(n);
    const auto trivial = flow::trivial_max_flow(g, s, sink, nt);
    clique::Network nf(n);
    const auto ff = flow::ford_fulkerson_max_flow(g, s, sink, nf);
    const double bound =
        std::pow(static_cast<double>(g.num_arcs()), 3.0 / 7.0) *
        std::pow(static_cast<double>(std::max<std::int64_t>(g.max_capacity(), 1)), 1.0 / 7.0);
    t.rows.push_back({instance, cell(n), cell(g.num_arcs()), cell(g.max_capacity()),
                      cell(ipm.run.rounds), cell(trivial.rounds), cell(ff.rounds),
                      fixed(bound, 1), cell(ipm.finishing_augmenting_paths),
                      yes(ipm.value == oracle.value && trivial.value == oracle.value &&
                          ff.value == oracle.value)});
  };
  for (const int m : {40, 80, 160, 320}) {
    const int n = std::max(10, m / 4);
    row("m-sweep", graph::random_flow_network(n, m, 4, 21), 0, n - 1);
  }
  for (const std::int64_t u : {1, 8, 64, 512}) {
    row("U-sweep", graph::random_flow_network(24, 96, u, 22), 0, 23);
  }
  row("small-f*", graph::random_flow_network(48, 96, 1, 23), 0, 47);
  const Digraph layered = graph::layered_flow_network(4, 5, 8, 24);
  row("layered", layered, 0, layered.num_vertices() - 1);
  return t;
}

Table a3() {
  Table t{"A3",
          "A3: max-flow IPM with Boosting on and off (random_flow_network n = 24, "
          "m = 96, capacities <= 16; iteration_scale 0.02, at most 250 iterations).",
          {"seed", "on rounds", "off rounds", "on finish paths", "off finish paths",
           "values equal Dinic's"},
          {}};
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    const Digraph g = graph::random_flow_network(24, 96, 16, seed);
    const auto oracle = flow::dinic_max_flow(g, 0, 23);
    const auto run = [&](bool boosting) {
      flow::MaxFlowIpmOptions opt;
      opt.iteration_scale = 0.02;
      opt.max_iterations = 250;
      opt.known_value = oracle.value;
      opt.enable_boosting = boosting;
      clique::Network net(24);
      return flow::max_flow_clique(g, 0, 23, net, opt);
    };
    const auto on = run(true);
    const auto off = run(false);
    t.rows.push_back({cell(static_cast<std::int64_t>(seed)), cell(on.run.rounds),
                      cell(off.run.rounds), cell(on.finishing_augmenting_paths),
                      cell(off.finishing_augmenting_paths),
                      yes(on.value == oracle.value && off.value == oracle.value)});
  }
  return t;
}

Table e6() {
  Table t{"E6",
          "E6: min-cost IPM rounds (iteration_scale 0.002, at most 50 iterations) vs m "
          "and the cost range W (random_unit_cost_digraph seeds 31 and 33, demands "
          "seeds 32 and 34).",
          {"sweep", "n", "m", "W", "rounds", "m^(3/7) (n^0.158 + log2(W)^2)", "solves",
           "finish paths", "cycles cancelled", "cost equals SSP's"},
          {}};
  const auto row = [&t](const char* sweep, const Digraph& g,
                        const std::vector<std::int64_t>& sigma) {
    const auto oracle = flow::ssp_min_cost_flow(g, sigma);
    flow::MinCostIpmOptions opt;
    opt.iteration_scale = 0.002;
    opt.max_iterations = 50;
    clique::Network net(g.num_vertices());
    const auto ipm = flow::min_cost_flow_clique(g, sigma, net, opt);
    const double w = static_cast<double>(std::max<std::int64_t>(g.max_cost(), 2));
    const double bound = std::pow(static_cast<double>(g.num_arcs()), 3.0 / 7.0) *
                         (std::pow(static_cast<double>(g.num_vertices()), 0.158) +
                          std::pow(std::log2(w), 2.0));
    t.rows.push_back({sweep, cell(g.num_vertices()), cell(g.num_arcs()), cell(g.max_cost()),
                      cell(ipm.run.rounds), fixed(bound, 1), cell(ipm.laplacian_solves),
                      cell(ipm.finishing_paths), cell(ipm.negative_cycles_cancelled),
                      yes(ipm.feasible == oracle.feasible &&
                          (!oracle.feasible || ipm.cost == oracle.cost))});
  };
  for (const int m : {30, 60, 120, 240}) {
    const int n = std::max(8, m / 4);
    const Digraph g = graph::random_unit_cost_digraph(n, m, 8, 31);
    row("m", g, graph::feasible_unit_demands(g, std::max(2, n / 6), 32));
  }
  for (const std::int64_t w : {1, 16, 256, 4096}) {
    const Digraph g = graph::random_unit_cost_digraph(16, 96, w, 33);
    row("W", g, graph::feasible_unit_demands(g, 4, 34));
  }
  return t;
}

Table e7() {
  Table t{"E7",
          "E7: the deterministic pipeline vs a randomized sparsifier driving the same "
          "Chebyshev engine (random_connected_gnm m = 6n, seed 41, eps = 1e-6; "
          "random_sparsify seed n).",
          {"n", "det edges of H", "det rounds", "rand edges of H", "rand rounds"},
          {}};
  for (const int n : {32, 64, 128, 256}) {
    const Graph g = graph::random_connected_gnm(n, 6 * n, 41);
    const std::vector<double> b = dipole(n);
    const auto det = solve_laplacian(g, b, 1e-6, {}, pinned_runtime());

    // Randomized baseline, charged as: one round to agree on randomness,
    // gathering H, then one round per Chebyshev iteration.  Its
    // preconditioner L_H^+ / 4 with kappa = 16 stands in for the w.h.p.
    // spectral bound of the sampling.
    spectral::RandomSparsifyOptions ropt;
    ropt.seed = static_cast<std::uint64_t>(n);
    const Graph h = spectral::random_sparsify(g, ropt);
    clique::Network net(n);
    net.charge(1);
    const auto nn = static_cast<std::int64_t>(n);
    net.charge((3 * h.num_edges() + nn - 1) / nn + 1);
    const auto hf = linalg::BackendLaplacianFactor::factor(graph::laplacian(h));
    linalg::ChebyshevOptions copt;
    copt.kappa = 16.0;
    copt.eps = 1e-6;
    std::vector<linalg::ChebyshevStats> stats;
    const std::vector<linalg::Vec> bs{b};
    (void)linalg::preconditioned_chebyshev(
        graph::laplacian(g),
        [&hf](std::span<const linalg::Vec> rs) {
          std::vector<linalg::Vec> zs = hf.solve_block(rs);
          for (linalg::Vec& z : zs) {
            for (double& v : z) v /= 4.0;
          }
          return zs;
        },
        bs, copt, &stats);
    net.charge(stats[0].iterations);
    t.rows.push_back({cell(n), cell(det.stats.sparsifier_edges), cell(det.run.rounds),
                      cell(h.num_edges()), cell(net.rounds())});
  }
  return t;
}

Table e8() {
  const Graph g = graph::random_connected_gnm(48, 192, 51);
  const auto l = graph::laplacian(g);
  const std::vector<double> b = dipole(48);
  const linalg::Vec xstar = linalg::BackendLaplacianFactor::factor(l).solve(b);
  const double ref = graph::laplacian_norm(l, xstar);
  const solver::LaplacianSolver solver(g);
  Table t{"E8",
          "E8: measured energy-norm error ||x - L^+ b||_L / ||L^+ b||_L and Chebyshev "
          "iterations vs eps (random_connected_gnm n = 48, m = 192, seed 51; kappa "
          "estimate " + fixed(solver.kappa(), 2) + ").",
          {"eps", "measured error", "error <= eps", "iterations",
           "iterations / (sqrt(kappa) ln(1/eps))"},
          {}};
  for (const double eps : {1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10}) {
    solver::LaplacianSolveStats stats;
    const linalg::Vec x = solver.solve(b, eps, &stats);
    const double err = graph::laplacian_norm(l, linalg::sub(x, xstar)) / ref;
    const double law = std::sqrt(stats.kappa) * std::log(1.0 / eps);
    t.rows.push_back({sci(eps, 0), sci(err, 3), yes(err <= eps),
                      cell(stats.chebyshev_iterations),
                      fixed(stats.chebyshev_iterations / std::max(law, 1.0), 2)});
  }
  return t;
}

Table e9_eps() {
  Table t{"E9-eps",
          "E9: (1+eps)-approximate electrical max flow vs eps, against the exact value "
          "(random_connected_gnm n = 24, m = 96, seed 61; weights <= 8, seed 62; "
          "iteration_scale 0.3).",
          {"eps", "m", "approx value", "exact value", "rounds", "iterations", "probes"},
          {}};
  const Graph g =
      graph::with_random_weights(graph::random_connected_gnm(24, 96, 61), 8, 62);
  const std::int64_t exact = flow::exact_max_flow_undirected(g, 0, 23);
  for (const double eps : {0.3, 0.15, 0.08}) {
    clique::Network net(24);
    flow::ApproxMaxFlowOptions opt;
    opt.eps = eps;
    opt.iteration_scale = 0.3;
    const auto r = flow::approx_max_flow_undirected(g, 0, 23, net, opt);
    t.rows.push_back({fixed(eps, 2), cell(g.num_edges()), fixed(r.value, 2), cell(exact),
                      cell(r.run.rounds), cell(r.iterations), cell(r.probes)});
  }
  return t;
}

Table e9_m() {
  Table t{"E9-m",
          "E9: the same method vs m at eps = 0.15 (random_connected_gnm n = max(12, m/4), "
          "seed 63; weights <= 8, seed 64; iteration_scale 0.2).",
          {"m", "approx value", "exact value", "rounds"},
          {}};
  for (const int m : {48, 96, 192, 384}) {
    const int n = std::max(12, m / 4);
    const Graph g = graph::with_random_weights(graph::random_connected_gnm(n, m, 63), 8, 64);
    clique::Network net(n);
    flow::ApproxMaxFlowOptions opt;
    opt.eps = 0.15;
    opt.iteration_scale = 0.2;
    const auto r = flow::approx_max_flow_undirected(g, 0, n - 1, net, opt);
    t.rows.push_back({cell(m), fixed(r.value, 2),
                      cell(flow::exact_max_flow_undirected(g, 0, n - 1)),
                      cell(r.run.rounds)});
  }
  return t;
}

Table e10() {
  Table t{"E10",
          "E10: executed CONGEST BFS and Bellman-Ford rounds from vertex 0 next to the "
          "clique's diameter-free n^0.158 charge (gnm seed 5; expander = circulant "
          "n = 512, offsets 1, 2, 4, 8, 16).",
          {"topology", "n", "eccentricity of 0", "CONGEST BFS rounds",
           "CONGEST Bellman-Ford rounds", "clique charge ceil(n^0.158)"},
          {}};
  const auto row = [&t](const char* topology, const Graph& g) {
    const auto bfs = clique::congest_bfs(g, 0);
    const auto bf = clique::congest_bellman_ford(g, 0);
    const int ecc = *std::max_element(bfs.dist.begin(), bfs.dist.end());
    t.rows.push_back({topology, cell(g.num_vertices()), cell(ecc), cell(bfs.rounds),
                      cell(bf.rounds),
                      cell(static_cast<std::int64_t>(std::ceil(
                          std::pow(static_cast<double>(g.num_vertices()), 0.158))))});
  };
  for (const int n : {64, 256, 1024}) row("path", graph::path(n));
  for (const int n : {64, 256, 1024}) {
    const int side = static_cast<int>(std::sqrt(n));
    row("grid", graph::grid(side, side));
  }
  for (const int n : {64, 256, 1024}) {
    row("gnm m=3n", graph::random_connected_gnm(n, 3 * n, 5));
  }
  row("expander", graph::circulant(512, std::vector<int>{1, 2, 4, 8, 16}));
  return t;
}

Table a2() {
  Table t{"A2",
          "A2: the sparsifier's conductance parameter phi trades quality for size and "
          "rounds (random_connected_gnm n = 48, m = 288, seed 3).",
          {"phi", "edges of H", "alpha", "levels", "rounds"},
          {}};
  const Graph g = graph::random_connected_gnm(48, 288, 3);
  for (const double phi : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    spectral::SparsifyOptions opt;
    opt.decomp.phi = phi;
    clique::Network net(48);
    const auto r = spectral::deterministic_sparsify(g, opt, &net);
    const double alpha = linalg::generalized_condition_number(graph::laplacian(g),
                                                              graph::laplacian(r.h));
    t.rows.push_back({fixed(phi, 2), cell(r.h.num_edges()), fixed(alpha, 2),
                      cell(r.stats.levels_used), cell(net.rounds())});
  }
  return t;
}

}  // namespace lapclique::experiments
