// (1+eps)-approximate maximum flow on *undirected* capacitated graphs via
// multiplicative-weights electrical flows (Christiano-Kelner-Mądry-Spielman-
// Teng), the algorithm family behind the [GKKL+18] CONGEST result the paper
// compares against in §1.1 ("an n^{o(1)}(sqrt n + D)/eps^3 round algorithm
// for (1+eps)-approximate maximum flow in weighted undirected graphs").
//
// Decision procedure for a target F:
//   repeat N = O(eps^{-2} sqrt(m) log m) times:
//     route F with the electrical flow for resistances r_e = (w_e + eps*W/m)/c_e^2;
//     if the flow's energy certifies F > F*, reject;
//     multiply w_e by (1 + eps/rho * |f_e|/c_e)   (rho = congestion cap)
//   output the average flow scaled by (1-O(eps)).
// An outer binary search over F gives the approximate max flow.  Each
// iteration is one Laplacian solve, so in the congested clique each
// iteration costs the Theorem 1.1 rounds (charged from a calibration solve
// as all-to-all exchanges, as in the exact IPMs).
#pragma once

#include "cliquesim/network.hpp"
#include "cliquesim/run_info.hpp"
#include "flow/electrical.hpp"
#include "graph/graph.hpp"

namespace lapclique::flow {

struct ApproxMaxFlowOptions {
  double eps = 0.1;
  /// Scales the O(eps^{-2} sqrt(m) log m) iteration budget.
  double iteration_scale = 1.0;
  int max_iterations = 5000;
};

struct ApproxMaxFlowReport {
  double value = 0;              ///< feasible flow value found ( >= (1-eps) F* )
  std::vector<double> flow;      ///< signed flow per undirected edge (+ = u->v)
  RunInfo run;                   ///< accounting across all probes
  std::int64_t rounds_per_solve = 0;
  int iterations = 0;            ///< electrical-flow computations
  int probes = 0;                ///< binary-search probes
};

/// Requires a connected graph with positive capacities (edge weights double
/// as capacities c_e).  s != t.
ApproxMaxFlowReport approx_max_flow_undirected(const graph::Graph& g, int s, int t,
                                               clique::Network& net,
                                               const ApproxMaxFlowOptions& opt = {});

/// Oracle: exact undirected max flow via Dinic on the bidirected graph.
std::int64_t exact_max_flow_undirected(const graph::Graph& g, int s, int t);

}  // namespace lapclique::flow
