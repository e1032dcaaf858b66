#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "graph/connectivity.hpp"
#include "io/dimacs.hpp"
#include "linalg/vector_ops.hpp"
#include "solver/resistance.hpp"

namespace lapclique::serve {

namespace json = obs::json;

namespace {

int checked_vertex(std::int64_t v, int n, const char* what) {
  if (v < 0 || v >= n) {
    throw RequestError("bad_request", std::string(what) + " out of range [0, " +
                                          std::to_string(n) + ")");
  }
  return static_cast<int>(v);
}

json::Value stats_to_json(const solver::LaplacianSolveStats& st) {
  json::Object o;
  o.emplace("chebyshev_iterations", st.chebyshev_iterations);
  o.emplace("exact_fallback", st.exact_fallback);
  o.emplace("kappa", st.kappa);
  o.emplace("relative_residual", st.relative_residual);
  o.emplace("restarts", st.restarts);
  o.emplace("sparsifier_edges", st.sparsifier_edges);
  return {std::move(o)};
}

/// The artifact block is a deterministic function of the cache key, echoed
/// identically whether this request built the artifact or an earlier one
/// did — the load-bearing piece of the hit==cold response-byte contract.
/// ("numerics_chosen" and "factor_fill" are functions of the graph content:
/// the factor kernel follows the instance.)
json::Value artifact_to_json(const Artifact& artifact, std::uint64_t hash,
                             double eps, clique::RoutingMode mode) {
  json::Object o;
  o.emplace("construction", run_to_json(artifact.construction));
  o.emplace("eps", eps);
  o.emplace("factor_fill", artifact.construction.factor_fill);
  o.emplace("graph", hash_to_string(hash));
  o.emplace("numerics_chosen", artifact.construction.numerics);
  o.emplace("routing", clique::to_string(mode));
  return {std::move(o)};
}

clique::RoutingMode parse_routing(const json::Value& req) {
  const std::optional<std::string> name = optional_string(req, "routing");
  if (!name.has_value()) return clique::RoutingMode::kCharged;
  const std::optional<clique::RoutingMode> mode =
      clique::routing_mode_from_string(*name);
  if (!mode.has_value()) {
    throw RequestError("bad_request", "unknown routing mode \"" + *name +
                                          "\" (charged | executed | broadcast)");
  }
  return *mode;
}

double parse_eps(const json::Value& req) {
  const double eps = require_number(req, "eps");
  if (!(eps > 0 && eps <= 0.5)) {
    throw RequestError("bad_request", "eps must be in (0, 1/2]");
  }
  return eps;
}

/// The demand vector chi_u - chi_v of one resistance query.
linalg::Vec pair_demand(int n, int u, int v) {
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[static_cast<std::size_t>(u)] = 1.0;
  chi[static_cast<std::size_t>(v)] = -1.0;
  return chi;
}

/// The right-hand-side columns of a Laplacian op on an n-vertex graph:
/// "b" (solve), every "rhs" vector (solve_batch), or the demand of "u"/"v"
/// (resistance) or of every "pairs" row (resistance_batch).
std::vector<linalg::Vec> parse_columns(const json::Value& req,
                                       const std::string& op, int n) {
  std::vector<linalg::Vec> bs;
  if (op == "solve") {
    std::vector<double> b = require_number_array(req, "b");
    if (static_cast<int>(b.size()) != n) {
      throw RequestError("bad_request",
                         "\"b\" must have n = " + std::to_string(n) + " entries");
    }
    bs.push_back(std::move(b));
  } else if (op == "solve_batch") {
    const json::Value* rhs = find_field(req, "rhs");
    if (rhs == nullptr || rhs->kind() != json::Value::Kind::kArray) {
      throw RequestError("bad_request",
                         "field \"rhs\" must be an array of vectors");
    }
    bs.reserve(rhs->as_array().size());
    for (const json::Value& col : rhs->as_array()) {
      if (col.kind() != json::Value::Kind::kArray) {
        throw RequestError("bad_request",
                           "field \"rhs\" must be an array of vectors");
      }
      linalg::Vec b;
      b.reserve(col.as_array().size());
      for (const json::Value& e : col.as_array()) {
        if (e.kind() == json::Value::Kind::kInt) {
          b.push_back(static_cast<double>(e.as_int()));
        } else if (e.kind() == json::Value::Kind::kDouble) {
          b.push_back(e.as_double());
        } else {
          throw RequestError("bad_request", "rhs entries must be numbers");
        }
      }
      if (static_cast<int>(b.size()) != n) {
        throw RequestError("bad_request", "every rhs vector must have n = " +
                                              std::to_string(n) + " entries");
      }
      bs.push_back(std::move(b));
    }
  } else if (op == "resistance") {
    const int u = checked_vertex(require_int(req, "u"), n, "vertex u");
    const int v = checked_vertex(require_int(req, "v"), n, "vertex v");
    if (u == v) throw RequestError("bad_request", "u and v must differ");
    bs.push_back(pair_demand(n, u, v));
  } else {
    const json::Value* pairs_v = find_field(req, "pairs");
    if (pairs_v == nullptr || pairs_v->kind() != json::Value::Kind::kArray) {
      throw RequestError("bad_request",
                         "field \"pairs\" must be an array of [u, v] pairs");
    }
    bs.reserve(pairs_v->as_array().size());
    for (const json::Value& row_v : pairs_v->as_array()) {
      if (row_v.kind() != json::Value::Kind::kArray ||
          row_v.as_array().size() != 2 ||
          row_v.as_array()[0].kind() != json::Value::Kind::kInt ||
          row_v.as_array()[1].kind() != json::Value::Kind::kInt) {
        throw RequestError("bad_request",
                           "field \"pairs\" must be an array of [u, v] pairs");
      }
      const int u = checked_vertex(row_v.as_array()[0].as_int(), n, "pair vertex");
      const int v = checked_vertex(row_v.as_array()[1].as_int(), n, "pair vertex");
      if (u == v) {
        throw RequestError("bad_request", "pair endpoints must differ");
      }
      bs.push_back(pair_demand(n, u, v));
    }
    if (bs.empty()) {
      throw RequestError("bad_request", "\"pairs\" must be non-empty");
    }
  }
  return bs;
}

// --- per-request deadlines -------------------------------------------------
//
// A Deadline is armed from the request's "deadline_ms" field (or the server
// default) and checked cooperatively: at admission, between solver phases,
// and — via ckpt::boundary — at every IPM batch boundary.  The
// error MESSAGE is a pure function of the configured limit (never of elapsed
// time), so "deadline_ms":0 aborts produce byte-deterministic responses; the
// "at" location of a genuinely-racing timeout is the only timing-dependent
// part, and it lives in the error object, which the determinism suite never
// byte-compares across timings.

class Deadline {
 public:
  static Deadline none() { return Deadline(); }
  static Deadline after_ms(std::int64_t ms) {
    Deadline d;
    d.armed_ = true;
    d.limit_ms_ = ms;
    d.expires_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::int64_t limit_ms() const { return limit_ms_; }
  [[nodiscard]] bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= expires_;
  }

 private:
  bool armed_ = false;
  std::int64_t limit_ms_ = 0;
  std::chrono::steady_clock::time_point expires_{};
};

/// Thrown by deadline checks; caught only in Server::handle (and, in the
/// flow handlers, briefly intercepted to attach the aborted run's partial
/// accounting before rethrow).
class DeadlineError : public std::runtime_error {
 public:
  DeadlineError(std::int64_t limit_ms, std::string at)
      : std::runtime_error("deadline of " + std::to_string(limit_ms) +
                           " ms exceeded"),
        at_(std::move(at)) {}

  [[nodiscard]] const std::string& at() const { return at_; }
  void attach(const clique::Network& net) {
    run_.emplace();
    run_->capture(net);
  }
  [[nodiscard]] const std::optional<RunInfo>& run() const { return run_; }

 private:
  std::string at_;
  std::optional<RunInfo> run_;
};

/// The request's deadline, visible to the handler methods without threading
/// it through every signature.  Set for the duration of one handle() call on
/// the handling thread (requests never migrate threads mid-handle).
thread_local const Deadline* tls_deadline = nullptr;

struct RequestDeadlineScope {
  explicit RequestDeadlineScope(const Deadline* d) : prev(tls_deadline) {
    tls_deadline = d;
  }
  ~RequestDeadlineScope() { tls_deadline = prev; }
  RequestDeadlineScope(const RequestDeadlineScope&) = delete;
  RequestDeadlineScope& operator=(const RequestDeadlineScope&) = delete;
  const Deadline* prev;
};

/// Between-phase check: throws a located DeadlineError when expired.
void check_deadline(const char* at) {
  const Deadline* d = tls_deadline;
  if (d != nullptr && d->expired()) throw DeadlineError(d->limit_ms(), at);
}

Deadline parse_deadline(const json::Value& req, std::int64_t default_ms) {
  const std::optional<std::int64_t> ms = optional_int(req, "deadline_ms");
  if (ms.has_value()) {
    if (*ms < 0) {
      throw RequestError("bad_request", "deadline_ms must be >= 0");
    }
    if (*ms > kMaxDeadlineMs) {
      throw RequestError("bad_request", "deadline_ms out of range [0, " +
                                            std::to_string(kMaxDeadlineMs) + "]");
    }
    return Deadline::after_ms(*ms);
  }
  if (default_ms > 0) return Deadline::after_ms(default_ms);
  return Deadline::none();
}

/// RAII gauge bump for handle()'s in-flight count.
struct InFlightGuard {
  explicit InFlightGuard(std::atomic<int>& g) : gauge(g) {
    gauge.fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;
  std::atomic<int>& gauge;
};

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt), cache_(opt.cache_capacity) {}

std::shared_ptr<const Server::Slot> Server::find_graph(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(graphs_mu_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    throw RequestError("unknown_graph", "no graph named \"" + name + "\"");
  }
  return it->second;
}

std::string Server::handle(const std::string& line) {
  const InFlightGuard in_flight(in_flight_);
  json::Value id;  // null until the request yields one
  try {
    if (line.size() > opt_.max_request_bytes) {
      throw RequestError("limit",
                         "request of " + std::to_string(line.size()) +
                             " bytes exceeds the limit of " +
                             std::to_string(opt_.max_request_bytes) + " bytes");
    }
    json::Value req;
    try {
      req = json::parse(line);
    } catch (const std::invalid_argument& e) {
      throw RequestError("parse", e.what(), parse_error_offset(e.what()));
    }
    if (req.kind() != json::Value::Kind::kObject) {
      throw RequestError("bad_request", "request must be a JSON object");
    }
    if (const json::Value* idf = find_field(req, "id")) id = *idf;
    const std::string op = require_string(req, "op");

    const Deadline deadline = parse_deadline(req, opt_.default_deadline_ms);
    const RequestDeadlineScope deadline_scope(deadline.armed() ? &deadline
                                                               : nullptr);
    check_deadline("admission");
    // IPM batch boundaries double as deadline-check points: the flow ops'
    // Θ(√m) iteration loops poll this on the handling thread.
    ckpt::CancellationScope cancel(
        deadline.armed()
            ? ckpt::CancellationFn([&deadline](std::int64_t batch) {
                if (deadline.expired()) {
                  throw DeadlineError(deadline.limit_ms(),
                                      "ipm batch " + std::to_string(batch));
                }
              })
            : ckpt::CancellationFn());

    std::string response = dispatch(req, id, op);
    completed_.fetch_add(1, std::memory_order_relaxed);
    return response;
  } catch (const DeadlineError& e) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    json::Object error_extra;
    error_extra.emplace("at", e.at());
    json::Object top_extra;
    if (e.run().has_value()) top_extra.emplace("run", run_to_json(*e.run()));
    return error_response(id, "deadline_exceeded", e.what(),
                          std::move(error_extra), std::move(top_extra));
  } catch (const RequestError& e) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    return error_response(id, e.code(), e.what(), e.offset());
  } catch (const std::invalid_argument& e) {
    // Validation inside an algorithm layer (graph construction, solver
    // preconditions) — a client error, reported as such.
    completed_.fetch_add(1, std::memory_order_relaxed);
    return error_response(id, "bad_request", e.what());
  } catch (const std::exception& e) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    return error_response(id, "internal", e.what());
  }
}

std::string Server::dispatch(const json::Value& req, const json::Value& id,
                             const std::string& op) {
  if (op == "graph.load") return handle_graph_load(req, id);
  if (op == "graph.drop") return handle_graph_drop(req, id);
  if (op == "solve" || op == "solve_batch" || op == "resistance" ||
      op == "resistance_batch") {
    return handle_laplacian(req, id, op);
  }
  if (op == "flow.max") return handle_flow_max(req, id);
  if (op == "flow.mincost") return handle_flow_mincost(req, id);
  if (op == "cache.stats") return handle_cache_stats(id);
  if (op == "cache.clear") return handle_cache_clear(id);
  if (op == "health") return handle_health(id);
  if (op == "shutdown") {
    shutdown_.store(true, std::memory_order_relaxed);
    begin_drain();  // socket frontends stop accepting, finish in-flight work
    json::Object result;
    result.emplace("stopping", true);
    json::Object extra;
    extra.emplace("result", json::Value(std::move(result)));
    return ok_response(id, op, std::move(extra));
  }
  throw RequestError("unknown_op", "unknown op \"" + op + "\"");
}

std::string Server::handle_graph_load(const json::Value& req,
                                      const json::Value& id) {
  const std::string name = require_string(req, "name");
  if (name.empty()) {
    throw RequestError("bad_request", "graph name must be non-empty");
  }
  const json::Value* edges = find_field(req, "edges");
  const json::Value* arcs = find_field(req, "arcs");
  if ((edges == nullptr) == (arcs == nullptr)) {
    throw RequestError("bad_request",
                       "exactly one of \"edges\" (undirected) or \"arcs\" "
                       "(directed) is required");
  }
  const json::Value& rows_v = edges != nullptr ? *edges : *arcs;
  if (rows_v.kind() != json::Value::Kind::kArray) {
    throw RequestError("bad_request", "edge list must be an array of arrays");
  }
  const json::Array& rows = rows_v.as_array();

  // Determine n: explicit field, else max endpoint + 1.
  std::int64_t n = 0;
  for (const json::Value& row_v : rows) {
    if (row_v.kind() != json::Value::Kind::kArray) {
      throw RequestError("bad_request", "edge list must be an array of arrays");
    }
    const json::Array& row = row_v.as_array();
    for (std::size_t i = 0; i < std::min<std::size_t>(row.size(), 2); ++i) {
      if (row[i].kind() != json::Value::Kind::kInt) {
        throw RequestError("bad_request", "edge endpoints must be integers");
      }
      // A saturating + 1: an endpoint of 2^63 - 1 must not overflow, and the
      // range check below rejects it.
      const std::int64_t v = row[i].as_int();
      n = std::max(n, v == std::numeric_limits<std::int64_t>::max() ? v : v + 1);
    }
  }
  if (const std::optional<std::int64_t> explicit_n = optional_int(req, "n")) {
    if (*explicit_n < n) {
      throw RequestError("bad_request",
                         "\"n\" is smaller than the largest endpoint + 1");
    }
    n = *explicit_n;
  }
  // The input-size cap every graph reader shares: a request must not
  // allocate per-vertex state for an absurd n before edge data backs it up.
  if (n < 1 || n > io::kMaxVertices) {
    throw RequestError("bad_request", "vertex count must be in [1, " +
                                          std::to_string(io::kMaxVertices) + "]");
  }

  // Build the whole slot before touching the registry: a failed load leaves
  // prior state untouched (all-or-nothing).
  auto slot = std::make_shared<Slot>();
  slot->directed = arcs != nullptr;
  const int nn = static_cast<int>(n);
  if (slot->directed) {
    slot->dg = graph::Digraph(nn);
    for (const json::Value& row_v : rows) {
      const json::Array& row = row_v.as_array();
      if (row.size() < 2 || row.size() > 4) {
        throw RequestError("bad_request",
                           "each arc must be [from, to], [from, to, cap], or "
                           "[from, to, cap, cost]");
      }
      const int from = checked_vertex(row[0].as_int(), nn, "arc endpoint");
      const int to = checked_vertex(row[1].as_int(), nn, "arc endpoint");
      std::int64_t cap = 1;
      std::int64_t cost = 0;
      if (row.size() >= 3) {
        if (row[2].kind() != json::Value::Kind::kInt) {
          throw RequestError("bad_request", "arc capacity must be an integer");
        }
        cap = row[2].as_int();
      }
      if (row.size() == 4) {
        if (row[3].kind() != json::Value::Kind::kInt) {
          throw RequestError("bad_request", "arc cost must be an integer");
        }
        cost = row[3].as_int();
      }
      if (cap < 0) throw RequestError("bad_request", "arc capacity must be >= 0");
      slot->dg.add_arc(from, to, cap, cost);
    }
    slot->hash = ckpt::graph_hash(slot->dg);
  } else {
    slot->g = graph::Graph(nn);
    for (const json::Value& row_v : rows) {
      const json::Array& row = row_v.as_array();
      if (row.size() < 2 || row.size() > 3) {
        throw RequestError("bad_request",
                           "each edge must be [u, v] or [u, v, w]");
      }
      const int u = checked_vertex(row[0].as_int(), nn, "edge endpoint");
      const int v = checked_vertex(row[1].as_int(), nn, "edge endpoint");
      if (u == v) throw RequestError("bad_request", "self-loops are rejected");
      double w = 1.0;
      if (row.size() == 3) {
        if (row[2].kind() == json::Value::Kind::kInt) {
          w = static_cast<double>(row[2].as_int());
        } else if (row[2].kind() == json::Value::Kind::kDouble) {
          w = row[2].as_double();
        } else {
          throw RequestError("bad_request", "edge weight must be a number");
        }
      }
      if (!(w > 0) || !std::isfinite(w)) {
        throw RequestError("bad_request", "edge weights must be finite and > 0");
      }
      slot->g.add_edge(u, v, w);
    }
    slot->hash = ckpt::graph_hash(slot->g);
  }

  json::Object result;
  result.emplace("directed", slot->directed);
  result.emplace("hash", hash_to_string(slot->hash));
  result.emplace("m", slot->directed ? slot->dg.num_arcs() : slot->g.num_edges());
  result.emplace("n", nn);
  result.emplace("name", name);
  {
    const std::lock_guard<std::mutex> lock(graphs_mu_);
    graphs_[name] = std::move(slot);
  }
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  return ok_response(id, "graph.load", std::move(extra));
}

std::string Server::handle_graph_drop(const json::Value& req,
                                      const json::Value& id) {
  const std::string name = require_string(req, "name");
  {
    const std::lock_guard<std::mutex> lock(graphs_mu_);
    if (graphs_.erase(name) == 0) {
      throw RequestError("unknown_graph", "no graph named \"" + name + "\"");
    }
  }
  json::Object result;
  result.emplace("dropped", name);
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  return ok_response(id, "graph.drop", std::move(extra));
}

std::string Server::handle_laplacian(const json::Value& req,
                                     const json::Value& id, const std::string& op) {
  const bool resistance = op == "resistance" || op == "resistance_batch";
  const bool batch = op == "solve_batch" || op == "resistance_batch";
  // solve_batch states its preconditions as "solve ...".
  const std::string what = op == "solve_batch" ? "solve" : op;
  const std::shared_ptr<const Slot> slot = find_graph(require_string(req, "graph"));
  if (slot->directed) {
    throw RequestError("bad_request", what + " requires an undirected graph");
  }
  const double eps = parse_eps(req);
  const clique::RoutingMode mode = parse_routing(req);
  const int n = slot->g.num_vertices();
  if (n < 2) throw RequestError("bad_request", what + " requires n >= 2");
  if (!graph::is_connected(slot->g)) {
    throw RequestError("bad_request",
                       resistance
                           ? "graph must be connected"
                           : "graph must be connected (solve components separately)");
  }
  const std::vector<linalg::Vec> bs = parse_columns(req, op, n);

  const std::shared_ptr<const Artifact> artifact =
      cache_.acquire(slot->g, slot->hash, eps, mode);
  check_deadline("artifact construction");

  clique::Network net(std::max(n, 2));
  net.set_routing_mode(mode);
  std::vector<solver::LaplacianSolveStats> stats;
  const std::vector<linalg::Vec> xs =
      artifact->solver->solve_block(bs, eps, &stats, &net);
  if (resistance) {
    for (std::size_t c = 0; c < bs.size(); ++c) solver::charge_potential_broadcast(net);
  }
  RunInfo run;
  run.capture(net);

  // Per column: the solution x, or the resistance (chi_u - chi_v)^T x.
  json::Array values;
  json::Array stats_json;
  for (std::size_t c = 0; c < xs.size(); ++c) {
    values.push_back(resistance ? json::Value(linalg::dot(bs[c], xs[c]))
                                : vec_to_json(xs[c]));
    stats_json.push_back(stats_to_json(stats[c]));
  }
  const char* key = resistance ? (batch ? "resistances" : "resistance")
                               : (batch ? "columns" : "x");
  json::Object result;
  result.emplace(key, batch ? json::Value(std::move(values)) : std::move(values[0]));
  result.emplace("stats",
                 batch ? json::Value(std::move(stats_json)) : std::move(stats_json[0]));
  json::Object extra;
  extra.emplace("artifact", artifact_to_json(*artifact, slot->hash, eps, mode));
  extra.emplace("result", json::Value(std::move(result)));
  extra.emplace("run", run_to_json(run));
  return ok_response(id, op, std::move(extra));
}

std::string Server::handle_flow_max(const json::Value& req,
                                    const json::Value& id) {
  const std::shared_ptr<const Slot> slot = find_graph(require_string(req, "graph"));
  if (!slot->directed) {
    throw RequestError("bad_request", "flow.max requires a directed graph");
  }
  const int n = slot->dg.num_vertices();
  const int s = checked_vertex(require_int(req, "s"), n, "vertex s");
  const int t = checked_vertex(require_int(req, "t"), n, "vertex t");
  if (s == t) throw RequestError("bad_request", "s and t must differ");
  const clique::RoutingMode mode = parse_routing(req);

  flow::MaxFlowIpmOptions fopt;
  if (const std::optional<double> v = optional_number(req, "iteration_scale")) {
    fopt.iteration_scale = *v;
  }
  if (const std::optional<std::int64_t> v = optional_int(req, "max_iterations")) {
    fopt.max_iterations = *v;
  }
  if (const std::optional<std::int64_t> v = optional_int(req, "known_value")) {
    fopt.known_value = *v;
  }

  clique::Network net(std::max(n, 2));
  net.set_routing_mode(mode);
  const flow::MaxFlowIpmReport rep = [&] {
    try {
      return flow::max_flow_clique(slot->dg, s, t, net, fopt);
    } catch (DeadlineError& e) {
      e.attach(net);  // the aborted run's partial round/word accounting
      throw;
    }
  }();

  json::Object result;
  result.emplace("finishing_augmenting_paths", rep.finishing_augmenting_paths);
  result.emplace("flow", int_vec_to_json(rep.flow));
  result.emplace("ipm_iterations", rep.ipm_iterations);
  result.emplace("laplacian_solves", rep.laplacian_solves);
  result.emplace("value", rep.value);
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  extra.emplace("run", run_to_json(rep.run));
  return ok_response(id, "flow.max", std::move(extra));
}

std::string Server::handle_flow_mincost(const json::Value& req,
                                        const json::Value& id) {
  const std::shared_ptr<const Slot> slot = find_graph(require_string(req, "graph"));
  if (!slot->directed) {
    throw RequestError("bad_request", "flow.mincost requires a directed graph");
  }
  const int n = slot->dg.num_vertices();
  const json::Value* sigma_v = find_field(req, "sigma");
  if (sigma_v == nullptr || sigma_v->kind() != json::Value::Kind::kArray) {
    throw RequestError("bad_request",
                       "field \"sigma\" must be an array of integers");
  }
  std::vector<std::int64_t> sigma;
  sigma.reserve(sigma_v->as_array().size());
  for (const json::Value& e : sigma_v->as_array()) {
    if (e.kind() != json::Value::Kind::kInt) {
      throw RequestError("bad_request", "sigma entries must be integers");
    }
    sigma.push_back(e.as_int());
  }
  if (static_cast<int>(sigma.size()) != n) {
    throw RequestError("bad_request",
                       "\"sigma\" must have n = " + std::to_string(n) + " entries");
  }
  const clique::RoutingMode mode = parse_routing(req);

  flow::MinCostIpmOptions fopt;
  if (const std::optional<double> v = optional_number(req, "iteration_scale")) {
    fopt.iteration_scale = *v;
  }
  if (const std::optional<std::int64_t> v = optional_int(req, "max_iterations")) {
    fopt.max_iterations = *v;
  }

  clique::Network net(std::max(n, 2));
  net.set_routing_mode(mode);
  const flow::MinCostIpmReport rep = [&] {
    try {
      return flow::min_cost_flow_clique(slot->dg, sigma, net, fopt);
    } catch (DeadlineError& e) {
      e.attach(net);  // the aborted run's partial round/word accounting
      throw;
    }
  }();

  json::Object result;
  result.emplace("cost", rep.cost);
  result.emplace("feasible", rep.feasible);
  result.emplace("flow", int_vec_to_json(rep.flow));
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  extra.emplace("run", run_to_json(rep.run));
  return ok_response(id, "flow.mincost", std::move(extra));
}

std::string Server::handle_cache_stats(const json::Value& id) {
  const CacheStats s = cache_.stats();
  json::Object result;
  result.emplace("capacity", static_cast<std::int64_t>(s.capacity));
  result.emplace("evictions", s.evictions);
  result.emplace("hits", s.hits);
  result.emplace("misses", s.misses);
  result.emplace("size", static_cast<std::int64_t>(s.size));
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  return ok_response(id, "cache.stats", std::move(extra));
}

std::string Server::handle_cache_clear(const json::Value& id) {
  cache_.clear();
  json::Object result;
  result.emplace("cleared", true);
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  return ok_response(id, "cache.clear", std::move(extra));
}

std::string Server::handle_health(const json::Value& id) {
  const LoadSnapshot ld = load();
  const CacheStats cs = cache_.stats();
  json::Object cache;
  cache.emplace("capacity", static_cast<std::int64_t>(cs.capacity));
  cache.emplace("evictions", cs.evictions);
  cache.emplace("hits", cs.hits);
  cache.emplace("misses", cs.misses);
  cache.emplace("size", static_cast<std::int64_t>(cs.size));
  std::int64_t graphs = 0;
  {
    const std::lock_guard<std::mutex> lock(graphs_mu_);
    graphs = static_cast<std::int64_t>(graphs_.size());
  }
  json::Object result;
  result.emplace("accepted", ld.accepted);
  result.emplace("active_connections", ld.active_connections);
  result.emplace("cache", json::Value(std::move(cache)));
  result.emplace("completed", ld.completed);
  result.emplace("deadline_exceeded", ld.deadline_exceeded);
  result.emplace("draining", ld.draining);
  result.emplace("graphs", graphs);
  result.emplace("in_flight", ld.in_flight);  // includes this health request
  result.emplace("queue_depth", ld.queue_depth);
  result.emplace("shed", ld.shed);
  result.emplace("workers", ld.workers);
  json::Object extra;
  extra.emplace("result", json::Value(std::move(result)));
  return ok_response(id, "health", std::move(extra));
}

LoadSnapshot Server::load() const {
  LoadSnapshot ld;
  ld.accepted = accepted_.load(std::memory_order_relaxed);
  ld.completed = completed_.load(std::memory_order_relaxed);
  ld.shed = shed_.load(std::memory_order_relaxed);
  ld.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  ld.in_flight = in_flight_.load(std::memory_order_relaxed);
  ld.active_connections = active_connections_.load(std::memory_order_relaxed);
  ld.workers = workers_.load(std::memory_order_relaxed);
  ld.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  ld.draining = draining();
  return ld;
}

int Server::serve(std::istream& in, std::ostream& out) {
  int handled = 0;
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    // Flush per response: a client waiting on this line must never block on
    // the server's buffering.  A dead sink (closed pipe) ends the loop —
    // responses after it could only be lost silently.
    out << handle(line) << '\n' << std::flush;
    if (!out) break;
    ++handled;
  }
  return handled;
}

}  // namespace lapclique::serve
