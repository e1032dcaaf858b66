// lapclique command-line tool: run the paper's algorithms on files.
//
//   lapclique_cli maxflow <instance.max>          Theorem 1.2 on DIMACS input
//   lapclique_cli mincost <instance.min>          Theorem 1.3 on DIMACS input
//   lapclique_cli orient <graph.el> [--random]    Theorem 1.4 on an edge list
//   lapclique_cli sparsify <graph.el>             Theorem 3.3, writes H to stdout
//   lapclique_cli solve <graph.el> <u> <v> [eps]  Theorem 1.1 (pair demand)
//   lapclique_cli resistance <graph.el> <u> <v>   effective resistance
//   lapclique_cli gen-maxflow <n> <m> <U> <seed>  random instance to stdout
//   lapclique_cli gen-mincost <n> <m> <W> <seed>  random instance to stdout
//
// Global flags (any command):
//   --trace <out.json>     write a per-phase round/congestion trace (the
//                          obs::RoundLedger JSON schema; "-" for stdout)
//   --faults <spec>        inject deterministic faults into every simulated
//                          delivery (grammar in docs/ROBUSTNESS.md, e.g.
//                          "drop=0.01,corrupt=0.005,crash=2@40"); recovery
//                          rounds are charged under the "recovery" phase
//   --routing <mode>       charged | executed | broadcast — unicast charged
//                          bounds (default), unicast with executed Lenzen
//                          schedules, or the Broadcast Congested Clique
//                          (docs/MODELS.md).  Outputs are bit-identical
//                          across modes; only the round/word accounting
//                          changes
//   --fault-seed <n>       seed for the fault plan (default 1)
//   --fault-report <path>  write the machine-readable recovery summary JSON
//                          to <path> ("-" for stdout; default: stderr)
//   --checkpoint <path>    (maxflow/mincost) commit a resumable snapshot to
//                          <path> at batch boundaries, atomically (see
//                          docs/CHECKPOINT.md)
//   --checkpoint-every <n> write every n-th boundary only (default 1)
//   --resume               continue from --checkpoint instead of starting
//                          fresh; outputs and ledgers are bit-identical to
//                          an uninterrupted run
//
// Both JSON outputs embed a "runtime" block (fault spec, routing mode) so a
// saved trace records the configuration that produced it.  The LDL^T kernel
// that factors each Laplacian follows the instance
// (linalg::resolve_backend); RunInfo reports it, and no flag picks it.
// Every command computes on the calling thread.
//
// A command given any argument it does not take, an unknown flag included,
// exits 2 with the usage line.
//
// Edge lists: "N M" header then "u v [w]" lines, 0-based.
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "core/api.hpp"
#include "euler/euler_orient.hpp"
#include "fault/fault_plan.hpp"
#include "flow/mincost_maxflow.hpp"
#include "graph/generators.hpp"
#include "io/dimacs.hpp"
#include "obs/round_ledger.hpp"

namespace {

using namespace lapclique;

using tools::arg_int;

double arg_double(const char* what, const char* text, double lo, double hi) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(what) + ": expected a number, got '" +
                                text + "'");
  }
  if (pos != std::strlen(text)) {
    throw std::invalid_argument(std::string(what) + ": trailing junk in '" + text +
                                "'");
  }
  if (!(v >= lo && v <= hi)) {
    throw std::invalid_argument(std::string(what) + ": " + text + " out of range");
  }
  return v;
}

int usage() {
  std::cerr << "usage: lapclique_cli "
               "maxflow|mincost|orient|sparsify|solve|resistance|gen-maxflow|"
               "gen-mincost ...\n"
               "see the header of tools/lapclique_cli.cpp for details\n";
  return 2;
}

std::ifstream open_or_die(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  return in;
}

int cmd_maxflow(int argc, char** argv, const Runtime& rt) {
  if (argc != 1) return usage();
  std::ifstream in = open_or_die(argv[0]);
  const io::MaxFlowProblem p = io::read_dimacs_max_flow(in);
  std::cerr << "n=" << p.g.num_vertices() << " m=" << p.g.num_arcs()
            << " s=" << p.source + 1 << " t=" << p.sink + 1 << "\n";
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 1000;
  const auto rep = max_flow(p.g, p.source, p.sink, opt, rt);
  std::cerr << "rounds=" << rep.run.rounds << " ipm_iterations=" << rep.ipm_iterations
            << " finishing_paths=" << rep.finishing_augmenting_paths << "\n";
  io::write_dimacs_flow(std::cout, p.g, rep.flow, rep.value);
  return 0;
}

int cmd_mincost(int argc, char** argv, const Runtime& rt) {
  if (argc != 1) return usage();
  std::ifstream in = open_or_die(argv[0]);
  const io::MinCostProblem p = io::read_dimacs_min_cost(in);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 80;
  const auto rep = min_cost_flow(p.g, p.sigma, opt, rt);
  if (!rep.feasible) {
    std::cerr << "infeasible\n";
    return 1;
  }
  std::cerr << "rounds=" << rep.run.rounds << " cost=" << rep.cost << "\n";
  io::write_dimacs_flow(std::cout, p.g, rep.flow, rep.cost);
  return 0;
}

int cmd_orient(int argc, char** argv, const Runtime& rt) {
  if (argc < 1 || argc > 2 || (argc == 2 && std::strcmp(argv[1], "--random") != 0)) {
    return usage();
  }
  std::ifstream in = open_or_die(argv[0]);
  const Graph g = io::read_edge_list(in);
  euler::EulerOrientOptions opt;
  if (argc == 2) opt.marking = euler::MarkingRule::kRandomized;
  // make_network applies the whole Runtime (tracer, fault plan, --routing).
  clique::Network net = make_network(g.num_vertices(), rt);
  const auto rep = euler::eulerian_orientation(g, net, nullptr, opt);
  std::cerr << "rounds=" << rep.rounds << " levels=" << rep.levels << "\n";
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (rep.orientation[static_cast<std::size_t>(e)] == 1) {
      std::cout << ed.u << ' ' << ed.v << '\n';
    } else {
      std::cout << ed.v << ' ' << ed.u << '\n';
    }
  }
  return 0;
}

int cmd_sparsify(int argc, char** argv, const Runtime& rt) {
  if (argc != 1) return usage();
  std::ifstream in = open_or_die(argv[0]);
  const Graph g = io::read_edge_list(in);
  const auto rep = sparsify(g, {}, rt);
  std::cerr << "rounds=" << rep.run.rounds << " edges " << g.num_edges() << " -> "
            << rep.h.num_edges() << "\n";
  io::write_edge_list(std::cout, rep.h);
  return 0;
}

int cmd_solve(int argc, char** argv, const Runtime& rt) {
  if (argc < 3 || argc > 4) return usage();
  std::ifstream in = open_or_die(argv[0]);
  const Graph g = io::read_edge_list(in);
  const int u = static_cast<int>(arg_int("solve: u", argv[1], 0, g.num_vertices() - 1));
  const int v = static_cast<int>(arg_int("solve: v", argv[2], 0, g.num_vertices() - 1));
  const double eps = argc >= 4 ? arg_double("solve: eps", argv[3], 1e-300, 0.5) : 1e-8;
  std::vector<double> b(static_cast<std::size_t>(g.num_vertices()), 0.0);
  b.at(static_cast<std::size_t>(u)) = 1.0;
  b.at(static_cast<std::size_t>(v)) = -1.0;
  const auto rep = solve_laplacian(g, b, eps, {}, rt);
  std::cerr << "rounds=" << rep.run.rounds
            << " chebyshev_iterations=" << rep.stats.chebyshev_iterations << "\n";
  for (double x : rep.x) std::cout << x << '\n';
  return 0;
}

int cmd_resistance(int argc, char** argv, const Runtime& rt) {
  if (argc != 3) return usage();
  std::ifstream in = open_or_die(argv[0]);
  const Graph g = io::read_edge_list(in);
  const auto rep = effective_resistance(
      g,
      static_cast<int>(arg_int("resistance: u", argv[1], 0, g.num_vertices() - 1)),
      static_cast<int>(arg_int("resistance: v", argv[2], 0, g.num_vertices() - 1)),
      1e-8, rt);
  std::cerr << "rounds=" << rep.run.rounds << "\n";
  std::cout << rep.resistance << "\n";
  return 0;
}

int cmd_gen_maxflow(int argc, char** argv) {
  if (argc != 4) return usage();
  const int n =
      static_cast<int>(arg_int("gen-maxflow: n", argv[0], 2, io::kMaxVertices));
  const int m = static_cast<int>(arg_int("gen-maxflow: m", argv[1], 0, io::kMaxArcs));
  const std::int64_t cap =
      arg_int("gen-maxflow: U", argv[2], 1, io::kMaxArcValue);
  const auto seed = static_cast<std::uint64_t>(
      arg_int("gen-maxflow: seed", argv[3], 0, std::numeric_limits<std::int64_t>::max()));
  io::MaxFlowProblem p;
  p.g = graph::random_flow_network(n, m, cap, seed);
  p.source = 0;
  p.sink = n - 1;
  io::write_dimacs_max_flow(std::cout, p);
  return 0;
}

int cmd_gen_mincost(int argc, char** argv) {
  if (argc != 4) return usage();
  const int n =
      static_cast<int>(arg_int("gen-mincost: n", argv[0], 2, io::kMaxVertices));
  const int m = static_cast<int>(arg_int("gen-mincost: m", argv[1], 0, io::kMaxArcs));
  const std::int64_t w =
      arg_int("gen-mincost: W", argv[2], 1, io::kMaxArcValue);
  const auto seed = static_cast<std::uint64_t>(
      arg_int("gen-mincost: seed", argv[3], 0, std::numeric_limits<std::int64_t>::max()));
  io::MinCostProblem p;
  p.g = graph::random_unit_cost_digraph(n, m, w, seed);
  p.sigma = graph::feasible_unit_demands(p.g, std::max(2, n / 5), seed + 1);
  io::write_dimacs_min_cost(std::cout, p);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the global flags before command dispatch.
  clique::RoutingMode routing = clique::RoutingMode::kCharged;
  const char* trace_path = nullptr;
  const char* fault_spec = nullptr;
  const char* fault_report = nullptr;
  std::uint64_t fault_seed = 1;
  const char* checkpoint_path = nullptr;
  std::int64_t checkpoint_every = 1;
  bool resume = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  const auto flag_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << flag << " requires a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  const auto flag_int = [&](int& i, const char* flag, std::int64_t lo, std::int64_t hi) {
    const char* v = flag_value(i, flag);
    try {
      return arg_int(flag, v, lo, hi);
    } catch (const std::exception& ex) {
      std::cerr << "error: " << ex.what() << "\n";
      std::exit(2);
    }
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--routing") == 0) {
      const char* v = flag_value(i, "--routing");
      const auto parsed = clique::routing_mode_from_string(v);
      if (!parsed.has_value()) {
        std::cerr << "--routing: expected charged|executed|broadcast, got '"
                  << v << "'\n";
        return 2;
      }
      routing = *parsed;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = flag_value(i, "--trace");
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      fault_spec = flag_value(i, "--faults");
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = static_cast<std::uint64_t>(flag_int(i, "--fault-seed", 0, kMax));
    } else if (std::strcmp(argv[i], "--fault-report") == 0) {
      fault_report = flag_value(i, "--fault-report");
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint_path = flag_value(i, "--checkpoint");
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      checkpoint_every = flag_int(i, "--checkpoint-every", 1, kMax);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const std::string cmd = args[1];
  char** rest = args.data() + 2;
  const int nrest = static_cast<int>(args.size()) - 2;

  std::unique_ptr<fault::FaultPlan> plan;
  if (fault_spec != nullptr) {
    try {
      plan = std::make_unique<fault::FaultPlan>(fault::parse_fault_spec(fault_spec),
                                                fault_seed);
    } catch (const std::exception& ex) {
      std::cerr << "error: " << ex.what() << "\n";
      return 2;
    }
  }
  if (resume && checkpoint_path == nullptr) {
    std::cerr << "--resume requires --checkpoint <path>\n";
    return 2;
  }

  // One Runtime describes the whole invocation, and every command runs
  // under it.
  obs::RoundLedger ledger;
  Runtime rt;
  rt.trace = trace_path != nullptr ? &ledger : nullptr;
  rt.faults = plan.get();
  rt.routing_mode = routing;
  if (checkpoint_path != nullptr) rt.checkpoint_path = checkpoint_path;
  rt.checkpoint_every = checkpoint_every;
  rt.resume = resume;

  int rc = 2;
  try {
    if (cmd == "maxflow") rc = cmd_maxflow(nrest, rest, rt);
    else if (cmd == "mincost") rc = cmd_mincost(nrest, rest, rt);
    else if (cmd == "orient") rc = cmd_orient(nrest, rest, rt);
    else if (cmd == "sparsify") rc = cmd_sparsify(nrest, rest, rt);
    else if (cmd == "solve") rc = cmd_solve(nrest, rest, rt);
    else if (cmd == "resistance") rc = cmd_resistance(nrest, rest, rt);
    else if (cmd == "gen-maxflow") rc = cmd_gen_maxflow(nrest, rest);
    else if (cmd == "gen-mincost") rc = cmd_gen_mincost(nrest, rest);
    else return usage();
  } catch (const fault::PreemptError& ex) {
    std::cerr << "preempted: " << ex.what();
    if (checkpoint_path != nullptr) {
      std::cerr << " (resume with --checkpoint " << checkpoint_path
                << " --resume)";
    }
    std::cerr << "\n";
    return 3;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }

  if (trace_path != nullptr) {
    obs::json::Object traced = ledger.to_json().as_object();
    traced["runtime"] = runtime_to_json(rt);
    const std::string text = obs::json::Value(std::move(traced)).dump_pretty();
    if (std::strcmp(trace_path, "-") == 0) {
      std::cout << text << "\n";
    } else {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot write " << trace_path << "\n";
        return 2;
      }
      out << text << "\n";
      std::cerr << "trace: " << trace_path << " (total_rounds="
                << ledger.total_rounds() << ")\n";
    }
  }
  if (plan != nullptr) {
    obs::json::Object report = plan->to_json().as_object();
    report["runtime"] = runtime_to_json(rt);
    const std::string summary = obs::json::Value(std::move(report)).dump_pretty();
    if (fault_report == nullptr) {
      std::cerr << summary << "\n";
    } else if (std::strcmp(fault_report, "-") == 0) {
      std::cout << summary << "\n";
    } else {
      std::ofstream out(fault_report);
      if (!out) {
        std::cerr << "cannot write " << fault_report << "\n";
        return 2;
      }
      out << summary << "\n";
      std::cerr << "fault report: " << fault_report << " (recovery_rounds="
                << plan->stats().recovery_rounds << ")\n";
    }
  }
  return rc;
}
