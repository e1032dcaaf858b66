// lapclique_serve — solver-as-a-service on the deterministic runtime.
//
// A Server holds parsed graphs resident in a name registry and answers
// solve / solve_batch / resistance / flow requests from a deterministic
// ArtifactCache (serve/artifact_cache.hpp), so repeat-topology requests skip
// sparsifier/factorization construction entirely.  Protocol (line-delimited
// JSON) and determinism contract: docs/SERVING.md.
//
// Determinism contract enforced here:
//   * Response bodies are byte-identical for the same request regardless of
//     request interleaving, server thread count, cache hits/misses, and
//     evictions.  The "run" block captures only the request's own solve
//     network; construction accounting is the cached artifact's property and
//     is echoed identically whether this request built it or not.
//   * Each request runs on its own Network and its own RoundLedger, so
//     concurrent handle() calls never share mutable accounting state.
//
// handle() is safe to call from multiple threads (the registry and cache
// are internally locked); serve() is the single-threaded stdin/stdout loop
// used by tools/lapclique_serve.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"

namespace lapclique::serve {

struct ServerOptions {
  /// ArtifactCache capacity in artifacts (LRU beyond this).
  std::size_t cache_capacity = 16;
  /// Hard cap on one request line; longer lines get a "limit" error without
  /// being parsed.
  std::size_t max_request_bytes = 4u << 20u;
  /// Deadline applied to requests that carry no "deadline_ms" field, in
  /// milliseconds; 0 = no default deadline.  A request's own "deadline_ms"
  /// always wins ("deadline_ms":0 is an already-expired deadline, useful for
  /// deterministic abort testing).
  std::int64_t default_deadline_ms = 0;
};

/// Point-in-time load gauges, fed partly by handle() (in-flight, completions,
/// deadline aborts) and partly by the socket frontend (connections, queue
/// depth, sheds).  Reported by the "health" op — which is therefore the one
/// op whose response body is deliberately NOT cache/interleaving-invariant.
struct LoadSnapshot {
  std::int64_t accepted = 0;           ///< connections accepted by the frontend
  std::int64_t completed = 0;          ///< requests answered (ok or error)
  std::int64_t shed = 0;               ///< requests refused by admission control
  std::int64_t deadline_exceeded = 0;  ///< requests aborted by their deadline
  int in_flight = 0;                   ///< handle() calls currently executing
  int active_connections = 0;          ///< connections currently held by workers
  int workers = 0;                     ///< frontend worker count (0: stdin mode)
  std::int64_t queue_depth = 0;        ///< connections queued awaiting a worker
  bool draining = false;
};

/// Out-of-band per-request observability for tests and benches: never enters
/// the response body (which must be cache-state independent).
struct RequestTelemetry {
  /// The op consulted the ArtifactCache (one of the four Laplacian ops).
  bool cache_lookup = false;
  bool cache_hit = false;
  /// Rounds the request was charged per phase, from the network phase
  /// ledgers every build keeps (a traced build checks them against the
  /// request's RoundLedger).  On a cache miss the construction phases
  /// ("solver/sparsify", "solver/gather_sparsifier",
  /// "solver/range_estimation") are the built artifact's and non-zero; on a
  /// hit they are exactly zero — the skip-construction proof.
  std::map<std::string, std::int64_t> ledger_rounds;
  /// Sum of the three construction phases above.
  std::int64_t construction_rounds = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opt = {});

  /// Handle one request line, returning the response line (no trailing
  /// newline).  Never throws and never crashes on malformed input: every
  /// failure becomes an error response, and a failed request leaves the
  /// graph registry and artifact cache exactly as they were.
  [[nodiscard]] std::string handle(const std::string& line,
                                   RequestTelemetry* telemetry = nullptr);

  /// Line loop: read requests from `in`, write one response line per
  /// request (flushed), stop at EOF or after a "shutdown" op.  Blank lines
  /// are skipped.  Returns the number of requests handled.
  int serve(std::istream& in, std::ostream& out);

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ServerOptions& options() const { return opt_; }

  // --- load & drain state shared with the socket frontend -----------------
  // begin_drain is async-signal-safe (one relaxed atomic store): the daemon's
  // SIGTERM handler calls it directly.  Draining means "stop accepting new
  // connections, finish what is in flight"; the frontend polls draining()
  // in its accept and connection loops.  The "shutdown" op also drains.

  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed) || shutdown_requested();
  }
  [[nodiscard]] LoadSnapshot load() const;

  // Frontend-fed gauges (no-ops in stdin mode, where the gauges stay 0).
  void note_accepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void note_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void note_connection_opened() {
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_connection_closed() {
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  void set_queue_depth(std::int64_t depth) {
    queue_depth_.store(depth, std::memory_order_relaxed);
  }
  void set_workers(int workers) {
    workers_.store(workers, std::memory_order_relaxed);
  }

 private:
  /// One resident graph: undirected (solve/resistance) or directed (flow).
  struct Slot {
    bool directed = false;
    graph::Graph g;
    graph::Digraph dg;
    std::uint64_t hash = 0;
  };

  [[nodiscard]] std::shared_ptr<const Slot> find_graph(const std::string& name) const;

  std::string dispatch(const obs::json::Value& request, const obs::json::Value& id,
                       const std::string& op, RequestTelemetry* telemetry);
  std::string handle_graph_load(const obs::json::Value& req, const obs::json::Value& id);
  std::string handle_graph_drop(const obs::json::Value& req, const obs::json::Value& id);
  /// The four Laplacian ops (solve, solve_batch, resistance,
  /// resistance_batch): one prelude, per-op columns, one solve_block call
  /// against the cached artifact, and per-op result shaping.
  std::string handle_laplacian(const obs::json::Value& req, const obs::json::Value& id,
                               const std::string& op, RequestTelemetry* telemetry);
  std::string handle_flow_max(const obs::json::Value& req, const obs::json::Value& id);
  std::string handle_flow_mincost(const obs::json::Value& req, const obs::json::Value& id);
  std::string handle_cache_stats(const obs::json::Value& id);
  std::string handle_cache_clear(const obs::json::Value& id);
  std::string handle_health(const obs::json::Value& id);

  ServerOptions opt_;
  ArtifactCache cache_;
  mutable std::mutex graphs_mu_;
  std::map<std::string, std::shared_ptr<const Slot>> graphs_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> draining_{false};

  // Load gauges (see LoadSnapshot).  Counters are monotone; gauges are
  // instantaneous.  All relaxed: they feed observability, never control flow
  // that could perturb response bytes.
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> active_connections_{0};
  std::atomic<int> workers_{0};
  std::atomic<std::int64_t> queue_depth_{0};
};

}  // namespace lapclique::serve
