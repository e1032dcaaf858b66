// lapclique_serve — the solver-as-a-service daemon.
//
// Speaks the line-delimited JSON protocol of docs/SERVING.md on stdin/stdout
// (default) or on a TCP socket (--port).  Graphs stay resident between
// requests and repeat-topology solves are answered from the deterministic
// artifact cache, skipping sparsifier/factorization construction.
//
// The socket mode is the production-grade frontend (serve/frontend.hpp):
// concurrent connections on a bounded worker set, per-request deadlines,
// admission control with deterministic load shedding, and graceful drain on
// SIGTERM/SIGINT or the "shutdown" op — in-flight requests finish, responses
// flush, exit status 0.
//
// Usage:
//   lapclique_serve [--cache-capacity N] [--max-request-bytes N]
//                   [--default-deadline-ms N]
//                   [--port P] [--serve-workers N] [--max-pending N]
//                   [--faults SPEC] [--fault-seed N]
//
//   --cache-capacity N       artifacts kept before LRU eviction (>= 1,
//                            default 16)
//   --max-request-bytes N    per-request byte cap, enforced on the stream
//                            (>= 1, default 4194304)
//   --default-deadline-ms N  deadline for requests without "deadline_ms"
//                            (0..serve::kMaxDeadlineMs, default 0 = none)
//   --port P                 listen on 127.0.0.1:P (0..65535; 0 = ephemeral,
//                            the bound port is printed to stderr) instead of
//                            stdin
//   --serve-workers N        concurrent connection workers
//                            (1..exec::kMaxThreads, default 4)
//   --max-pending N          queued connections tolerated while all workers
//                            are busy; beyond this, shed with "overloaded"
//                            (default 16)
//   --faults SPEC            socket fault plan for the --port frontend:
//                            sock-drop, sock-partial and sock-slow clauses
//                            only (fault/fault_plan.hpp grammar)
//   --fault-seed N           seed for the fault plan (default 1)
//
// A numeric flag that is not an integer in its range exits 2 with a message
// naming the flag.  So does a --faults clause the daemon cannot apply (any
// clause but the three sock-* ones: the simulated network's faults and
// drills belong to lapclique_cli), and --faults without --port.  Each
// artifact's LDL^T kernel follows its graph (linalg::resolve_backend) and
// is reported in the response's artifact block; no flag or request field
// picks it.  Each request computes on the thread that handles it: the
// stdin loop's, or its connection's worker under --port.
//
// Responses are identical in both transports: the socket path wraps the
// same Server::handle the stdin loop and the test suite drive.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "exec/pool.hpp"
#include "fault/fault_plan.hpp"
#include "serve/frontend.hpp"
#include "serve/server.hpp"

namespace {

lapclique::serve::Server* g_server = nullptr;

/// SIGTERM/SIGINT: begin a graceful drain.  begin_drain is one relaxed
/// atomic store — async-signal-safe; the accept and connection loops poll it.
extern "C" void on_terminate(int) {
  if (g_server != nullptr) g_server->begin_drain();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--cache-capacity N] [--max-request-bytes N]"
               " [--default-deadline-ms N] [--port P] [--serve-workers N]"
               " [--max-pending N] [--faults SPEC] [--fault-seed N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lapclique::serve::ServerOptions opt;
  lapclique::serve::FrontendOptions fopt;
  int port = -1;
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    const auto next_int = [&](std::int64_t lo, std::int64_t hi) {
      const char* v = next();
      try {
        return lapclique::tools::arg_int(arg.c_str(), v, lo, hi);
      } catch (const std::invalid_argument& e) {
        std::cerr << "lapclique_serve: " << e.what() << "\n";
        std::exit(2);
      }
    };
    if (arg == "--cache-capacity") {
      opt.cache_capacity = static_cast<std::size_t>(next_int(1, kMax));
    } else if (arg == "--max-request-bytes") {
      opt.max_request_bytes = static_cast<std::size_t>(next_int(1, kMax));
    } else if (arg == "--default-deadline-ms") {
      opt.default_deadline_ms = next_int(0, lapclique::serve::kMaxDeadlineMs);
    } else if (arg == "--port") {
      port = static_cast<int>(next_int(0, 65535));
    } else if (arg == "--serve-workers") {
      fopt.workers = static_cast<int>(next_int(1, lapclique::exec::kMaxThreads));
    } else if (arg == "--max-pending") {
      fopt.max_pending = static_cast<std::size_t>(next_int(0, kMax));
    } else if (arg == "--faults") {
      fault_spec = next();
    } else if (arg == "--fault-seed") {
      fault_seed = static_cast<std::uint64_t>(next_int(0, kMax));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  std::optional<lapclique::fault::FaultPlan> faults;  // FaultPlan is immovable
  if (!fault_spec.empty()) {
    try {
      faults.emplace(lapclique::fault::parse_fault_spec(fault_spec), fault_seed);
      fopt.faults = &*faults;
    } catch (const std::exception& e) {
      std::cerr << "lapclique_serve: bad --faults spec: " << e.what() << "\n";
      return 2;
    }
    // The spec parsed, so every clause starting "sock-" is one of the three
    // socket clauses.
    std::stringstream clauses(fault_spec);
    for (std::string clause; std::getline(clauses, clause, ',');) {
      if (clause.rfind("sock-", 0) != 0) {
        std::cerr << "lapclique_serve: --faults clause '" << clause
                  << "' does not apply to the daemon (only sock-drop, "
                     "sock-partial and sock-slow do)\n";
        return 2;
      }
    }
    if (port < 0) {
      std::cerr << "lapclique_serve: --faults requires --port (its sock-* "
                   "clauses act on the socket frontend)\n";
      return 2;
    }
  }

  lapclique::serve::Server server(opt);
  g_server = &server;
  // A peer closing mid-response must surface as a write error on that one
  // connection, never a process-wide SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGINT, on_terminate);

  if (port >= 0) {
    fopt.port = port;
    lapclique::serve::Frontend frontend(server, fopt);
    try {
      const int bound = frontend.listen();
      std::cerr << "lapclique_serve: listening on 127.0.0.1:" << bound << "\n";
    } catch (const std::exception& e) {
      std::cerr << "lapclique_serve: " << e.what() << "\n";
      return 1;
    }
    frontend.run();  // returns only after a completed drain
    std::cerr << "lapclique_serve: drained, exiting\n";
    return 0;
  }
  server.serve(std::cin, std::cout);
  return 0;
}
