#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cliquesim/network.hpp"
#include "euler/euler_orient.hpp"
#include "exec/pool.hpp"
#include "flow/dinic.hpp"
#include "flow/ssp_mincost.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "serve/client.hpp"
#include "serve/frontend.hpp"
#include "serve/server.hpp"
#include "solver/clique_laplacian.hpp"

namespace lapbench {

namespace lc = lapclique;

namespace {
constexpr double kServeEps = 1e-6;
constexpr int kServeColdKeys = 16;
constexpr int kServeHitRhs = 16;
constexpr int kServePairSets = 8;
constexpr int kServePairsPerBatch = 8;

/// The flow workloads draw their instances from a screened pool: candidates
/// 0..kFlowPool-1 of generator seed kFlowPoolSeed, every one of which the
/// IPM solves exactly.  Unscreened random instances of the min-cost shape
/// make min_cost_flow_clique throw ("Graph: weight must be positive") about
/// once in a thousand, which would fail a run on the library's defect rather
/// than measure it.  The run's seed picks which candidates, in what order.
constexpr std::uint64_t kFlowPoolSeed = 1;
constexpr std::uint64_t kFlowPool = 128;

std::uint64_t pool_candidate(std::uint64_t seed, std::string_view workload,
                             std::uint64_t index) {
  if (index >= kFlowPool) throw std::out_of_range("flow instance index beyond the pool");
  std::vector<std::uint64_t> c(kFlowPool);
  std::iota(c.begin(), c.end(), std::uint64_t{0});
  // Partial Fisher-Yates: the first index + 1 entries of a seeded shuffle.
  lc::graph::SplitMix64 rng(derive_seed(seed, std::string(workload) + ".pick", 0));
  for (std::uint64_t i = 0; i <= index; ++i) {
    std::swap(c[i], c[i + rng.next_below(kFlowPool - i)]);
  }
  return c[index];
}
}  // namespace

// --- seeded instances --------------------------------------------------------

lc::graph::Graph lap_graph(std::uint64_t seed, std::uint64_t index) {
  return lc::graph::random_connected_gnm(1024, 4096,
                                         derive_seed(seed, "lap_solve_sparse", index));
}

std::vector<double> rhs_vector(std::uint64_t seed, std::string_view workload,
                               std::uint64_t index, int n) {
  lc::graph::SplitMix64 rng(derive_seed(seed, std::string(workload) + ".rhs", index));
  std::vector<double> b(static_cast<std::size_t>(n));
  double mean = 0;
  for (double& x : b) {
    x = 2.0 * rng.next_double() - 1.0;
    mean += x;
  }
  mean /= n;
  for (double& x : b) x -= mean;
  return b;
}

lc::graph::Graph serve_graph(std::uint64_t seed) {
  return lc::graph::with_random_weights(
      lc::graph::random_connected_gnm(256, 1024, derive_seed(seed, "serve_mixed", 0)), 8,
      derive_seed(seed, "serve_mixed", 1));
}

FlowInstance maxflow_instance(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t c = pool_candidate(seed, "maxflow_ipm", index);
  FlowInstance inst;
  inst.g = lc::graph::random_flow_network(128, 512, 4,
                                          derive_seed(kFlowPoolSeed, "maxflow_ipm", c));
  inst.oracle_value = lc::flow::dinic_max_flow(inst.g, 0, 127).value;
  return inst;
}

MinCostInstance mincost_instance(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t c = pool_candidate(seed, "mincost_ipm", index);
  MinCostInstance inst;
  inst.g = lc::graph::random_unit_cost_digraph(32, 96, 8,
                                               derive_seed(kFlowPoolSeed, "mincost_ipm", c));
  inst.sigma = lc::graph::feasible_unit_demands(
      inst.g, 8, derive_seed(kFlowPoolSeed, "mincost_ipm.demands", c));
  inst.oracle_cost = lc::flow::ssp_min_cost_flow(inst.g, inst.sigma).cost;
  return inst;
}

lc::flow::MaxFlowIpmOptions maxflow_options(std::int64_t known_value) {
  lc::flow::MaxFlowIpmOptions o;
  o.iteration_scale = 0.02;
  o.max_iterations = 250;
  o.known_value = known_value;
  return o;
}

lc::flow::MinCostIpmOptions mincost_options() {
  lc::flow::MinCostIpmOptions o;
  o.iteration_scale = 0.02;
  o.max_iterations = 250;
  return o;
}

lc::graph::Graph euler_graph(std::uint64_t seed, std::uint64_t index) {
  return lc::graph::doubled(
      lc::graph::random_gnm(16384, 32768, derive_seed(seed, "euler_orient", index)));
}

namespace {

/// Request id: a kind letter and a content index ("h3", "c12").
std::string request_id(char kind, int k) {
  std::string s(1, kind);
  s += std::to_string(k);
  return s;
}

json::Value vec_json(const std::vector<double>& v) {
  json::Array a;
  a.reserve(v.size());
  for (const double x : v) a.emplace_back(x);
  return {std::move(a)};
}

std::string solve_line(const std::string& id, double eps, int threads,
                       const std::vector<double>& b) {
  json::Object r;
  r.emplace("op", "solve");
  r.emplace("id", id);
  r.emplace("graph", "g");
  r.emplace("eps", eps);
  r.emplace("threads", threads);
  r.emplace("b", vec_json(b));
  return json::Value(std::move(r)).dump();
}

}  // namespace

ServeRequests serve_requests(std::uint64_t seed, const lc::graph::Graph& g, int threads) {
  ServeRequests q;
  const int n = g.num_vertices();
  {
    json::Object r;
    r.emplace("op", "graph.load");
    r.emplace("id", "load");
    r.emplace("name", "g");
    r.emplace("n", n);
    json::Array edges;
    for (const lc::graph::Edge& e : g.edges()) {
      edges.emplace_back(json::Array{e.u, e.v, e.w});
    }
    r.emplace("edges", json::Value(std::move(edges)));
    q.load = json::Value(std::move(r)).dump();
  }
  for (int k = 0; k < kServeHitRhs; ++k) {
    q.hit_ids.push_back(request_id('h', k));
    q.hit.push_back(solve_line(q.hit_ids.back(), kServeEps, threads,
                               rhs_vector(seed, "serve_mixed.hit", k, n)));
  }
  for (int k = 0; k < kServePairSets; ++k) {
    lc::graph::SplitMix64 rng(derive_seed(seed, "serve_mixed.pairs", k));
    json::Array pairs;
    for (int p = 0; p < kServePairsPerBatch; ++p) {
      const auto u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<int>(
          (u + 1 + rng.next_below(static_cast<std::uint64_t>(n - 1))) % n);
      pairs.emplace_back(json::Array{u, v});
    }
    q.batch_ids.push_back(request_id('b', k));
    json::Object r;
    r.emplace("op", "resistance_batch");
    r.emplace("id", q.batch_ids.back());
    r.emplace("graph", "g");
    r.emplace("eps", kServeEps);
    r.emplace("threads", threads);
    r.emplace("pairs", json::Value(std::move(pairs)));
    q.batch.push_back(json::Value(std::move(r)).dump());
  }
  for (int k = 0; k < kServeColdKeys; ++k) {
    // eps is part of the artifact-cache key, so each key is its own artifact.
    q.cold_ids.push_back(request_id('c', k));
    q.cold.push_back(solve_line(q.cold_ids.back(), kServeEps * (1.0 + 1e-3 * (k + 1)),
                                threads, rhs_vector(seed, "serve_mixed.cold", k, n)));
  }
  return q;
}

namespace {

/// Stops a loop once `seconds` have passed and at least `min_ops` ran.
struct StopRule {
  Clock::time_point start = Clock::now();
  double seconds = 0;
  std::int64_t min_ops = 1;

  [[nodiscard]] bool done(std::int64_t ops) const {
    return ops >= min_ops && ms_between(start, Clock::now()) >= seconds * 1000.0;
  }
};

/// In trace mode every other op runs inside a span; the rest give the
/// untraced medians for obs.trace_overhead_frac.
Tracer* tracer_for(Tracer* tracer, std::int64_t op) {
  return tracer != nullptr && op % 2 == 0 ? tracer : nullptr;
}

/// Call right after the op ends.
void record(LoopResult& r, double ms, bool traced, bool trace_mode,
            Clock::time_point end = Clock::now(), bool latency = true) {
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms / 2));
  r.ops.push_back({ms, end - half, latency});
  if (trace_mode) (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
}

std::vector<double> all_ms(const LoopResult& r) {
  std::vector<double> v;
  for (const OpSample& o : r.ops) v.push_back(o.ms);
  return v;
}

void add_p50(LoopResult& r, const char* name, const std::vector<double>& v) {
  if (!v.empty()) {
    r.details.push_back({name, median(v), "ms", "lower", static_cast<std::int64_t>(v.size())});
  }
}

void add_tail(LoopResult& r, const char* name, const std::vector<double>& v, double p) {
  if (tail_supported(v.size(), p)) {
    r.details.push_back(
        {name, percentile(v, p), "ms", "lower", static_cast<std::int64_t>(v.size())});
  }
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

template <class T>
std::uint64_t hash_vec(const std::vector<T>& v) {
  return fingerprint(v.data(), v.size() * sizeof(T));
}

std::string counts_suffix(const lc::clique::Network& net) {
  std::string s = ":";
  s += std::to_string(net.rounds());
  s += ":";
  s += std::to_string(net.words_sent());
  return s;
}

// --- lap_solve_sparse -----------------------------------------------------------

class LapSolveSparse final : public Workload {
 public:
  static constexpr int kGraphs = 24;
  static constexpr int kSolvesPerGraph = 8;

  explicit LapSolveSparse(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "lap_solve_sparse"; }
  [[nodiscard]] std::int64_t pin_ops() const override { return kSolvesPerGraph; }

  void setup() override {
    for (int j = 0; j < kGraphs; ++j) {
      graphs_.push_back(lap_graph(seed_, static_cast<std::uint64_t>(j)));
      for (int k = 0; k < kSolvesPerGraph; ++k) {
        rhs_.push_back(rhs_vector(seed_, name(),
                                  static_cast<std::uint64_t>(j * kSolvesPerGraph + k),
                                  graphs_.back().num_vertices()));
      }
    }
    (void)unit_op(1, nullptr);
  }

  LoopResult run(double seconds, std::int64_t min_ops, Tracer* tracer,
                 HostReference& ref) override {
    const lc::exec::ThreadScope threads(1);
    LoopResult r;
    std::vector<double> construct_ms;
    const StopRule stop{Clock::now(), seconds, min_ops};
    std::int64_t solves = 0;
    for (int j = 0; !stop.done(solves); ++j) {
      const lc::graph::Graph& g = graphs_[static_cast<std::size_t>(j % kGraphs)];
      lc::clique::Network net(g.num_vertices());
      std::unique_ptr<lc::solver::CliqueLaplacianSolver> s;
      ++r.attempted;
      try {
        Span span(tracer, "solver::CliqueLaplacianSolver()", "solver", solves);
        s = std::make_unique<lc::solver::CliqueLaplacianSolver>(g, options(), net);
        construct_ms.push_back(span.stop());
      } catch (const std::exception& e) {
        ++r.failed;
        r.check_failures.push_back(std::string("construct: ") + e.what());
        break;
      }
      for (int k = 0; k < kSolvesPerGraph && !stop.done(solves); ++k, ++solves) {
        const std::vector<double>& b =
            rhs_[static_cast<std::size_t>((j % kGraphs) * kSolvesPerGraph + k)];
        ++r.attempted;
        Tracer* t = tracer_for(tracer, solves);
        lc::linalg::Vec x;
        try {
          Span span(t, "solver::CliqueLaplacianSolver::solve", "solver", solves);
          x = s->solve(b, kLapEps);
          record(r, span.stop(), t != nullptr, tracer != nullptr);
        } catch (const std::exception& e) {
          ++r.failed;
          r.check_failures.push_back(std::string("solve: ") + e.what());
          continue;
        }
        // The solver certifies ||L_G x - b|| / ||b|| <= eps; check it here.
        lc::linalg::Vec res = s->inner().matrix().multiply(x);
        for (std::size_t i = 0; i < res.size(); ++i) res[i] -= b[i];
        if (!(lc::linalg::norm2(res) <= kLapEps * lc::linalg::norm2(b))) ++r.failed;
        ref.maybe_run();
      }
      if (j == 0) {
        r.model_rounds = net.rounds();
        r.model_words = net.words_sent();
      }
    }
    r.start = stop.start;
    r.end = Clock::now();
    add_p50(r, "construct_ms_p50", construct_ms);
    add_tail(r, "solve_ms_p90", all_ms(r), 90);
    return r;
  }

  UnitOp unit_op(int threads, Tracer* tracer) override {
    const lc::exec::ThreadScope scope(threads);
    lc::clique::Network net(graphs_[0].num_vertices());
    Span span(tracer, "exec.unit_op", "exec");
    const lc::solver::CliqueLaplacianSolver s(graphs_[0], options(), net);
    const lc::linalg::Vec x = s.solve(rhs_[0], kLapEps);
    const double ms = span.stop();
    return {ms, hex(hash_vec(x)) + counts_suffix(net)};
  }

 private:
  static lc::solver::LaplacianSolverOptions options() { return {}; }

  std::uint64_t seed_;
  std::vector<lc::graph::Graph> graphs_;
  std::vector<std::vector<double>> rhs_;
};

// --- serve_mixed -----------------------------------------------------------------

class ServeMixed final : public Workload {
 public:
  static constexpr int kBlock = 8;  ///< 1 cold + 5 hit solve + 2 resistance_batch
  static constexpr int kWorkers = 2;
  /// Small cache: with cold requests never adjacent, at most two cold
  /// artifacts land between two touches of the shared hit artifact, so the
  /// hit key stays resident while each cold key is evicted long before its
  /// turn comes round again (kServeColdKeys apart).
  static constexpr std::size_t kCacheCapacity = 4;

  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {}
  ~ServeMixed() override {
    if (runner_.joinable()) {
      server_->begin_drain();
      runner_.join();
    }
  }
  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  [[nodiscard]] std::string_view name() const override { return "serve_mixed"; }
  [[nodiscard]] std::int64_t pin_ops() const override { return 160; }

  void setup() override {
    graph_ = serve_graph(seed_);
    req_ = serve_requests(seed_, graph_);
    // Sequential in-process reference bodies: colds first, so the shared
    // hit artifact is the most recent entry afterwards (unit_op reuses it).
    reference_server_ = std::make_unique<lc::serve::Server>(server_options());
    expect_ok(reference_server_->handle(req_.load), "reference graph.load");
    auto add = [this](const std::vector<std::string>& ids,
                      const std::vector<std::string>& lines) {
      for (std::size_t k = 0; k < lines.size(); ++k) {
        std::string body = reference_server_->handle(lines[k]);
        expect_ok(body, "reference " + ids[k]);
        const json::Value run = json::parse(body).at("run");
        counts_[ids[k]] = {run.at("rounds").as_int(), run.at("words").as_int()};
        reference_[ids[k]] = std::move(body);
      }
    };
    add(req_.cold_ids, req_.cold);
    add(req_.hit_ids, req_.hit);
    add(req_.batch_ids, req_.batch);

    server_ = std::make_unique<lc::serve::Server>(server_options());
    lc::serve::FrontendOptions fopt;
    fopt.workers = kWorkers;
    frontend_ = std::make_unique<lc::serve::Frontend>(*server_, fopt);
    port_ = frontend_->listen();
    runner_ = std::thread([this] {
      try {
        frontend_->run();
      } catch (...) {
        runner_error_ = std::current_exception();
      }
    });
    lc::serve::Client client(port_);
    expect_ok(client.call(req_.load), "graph.load");
    if (client.call(req_.hit[0]) != reference_.at(req_.hit_ids[0])) {
      throw std::runtime_error("serve_mixed: warm-up body differs from reference");
    }
  }

  LoopResult run(double seconds, std::int64_t min_ops, Tracer* tracer,
                 HostReference& ref) override {
    struct Rec {
      std::int64_t i = 0;
      char kind = 'h';
      double ms = 0;
      bool ok = false;
      bool traced = false;
      Clock::time_point end;
    };
    const lc::serve::CacheStats before = server_->cache_stats();
    std::atomic<std::int64_t> next{0};
    std::vector<Rec> recs[kWorkers];
    const StopRule stop{Clock::now(), seconds, min_ops};
    auto client_loop = [&](int c) {
      lc::serve::Client client(port_);
      for (;;) {
        const std::int64_t i = next.fetch_add(1);
        if (stop.done(i)) break;
        const Slot s = slot(i);
        Rec rec{i, s.kind, 0, false, false, {}};
        Tracer* t = tracer_for(tracer, i);
        rec.traced = t != nullptr;
        try {
          Span span(t, s.span, "serve", i);
          const std::string body = client.call(*s.line);
          rec.ms = span.stop();
          rec.end = Clock::now();
          rec.ok = body == reference_.at(*s.id);
        } catch (const std::exception&) {
          rec.ok = false;
        }
        recs[c].push_back(rec);
        ref.maybe_run();
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kWorkers; ++c) clients.emplace_back(client_loop, c);
    for (std::thread& t : clients) t.join();

    LoopResult r;
    r.start = stop.start;
    r.end = Clock::now();
    std::vector<double> cold_ms, hit_ms, batch_ms;
    std::int64_t colds = 0;
    for (const std::vector<Rec>& v : recs) {
      for (const Rec& rec : v) {
        ++r.attempted;
        if (!rec.ok) ++r.failed;
        record(r, rec.ms, rec.traced, tracer != nullptr, rec.end, rec.kind == 'h');
        if (rec.kind == 'c') ++colds;
        (rec.kind == 'c' ? cold_ms : rec.kind == 'h' ? hit_ms : batch_ms).push_back(rec.ms);
      }
    }
    if (runner_error_ != nullptr) r.check_failures.push_back("frontend stopped with an error");
    const lc::serve::CacheStats after = server_->cache_stats();
    if (after.misses - before.misses != colds ||
        after.hits - before.hits != r.attempted - colds) {
      r.check_failures.push_back(
          "cache misses " + std::to_string(after.misses - before.misses) +
          " != cold requests " + std::to_string(colds));
    }
    for (std::int64_t i = 0; i < pin_ops(); ++i) {
      const auto& [rounds, words] = counts_.at(*slot(i).id);
      r.model_rounds += rounds;
      r.model_words += words;
    }
    add_p50(r, "cold_req_ms_p50", cold_ms);
    add_p50(r, "hit_req_ms_p50", hit_ms);
    add_p50(r, "batch_req_ms_p50", batch_ms);
    add_tail(r, "req_ms_p99", all_ms(r), 99);
    return r;
  }

  UnitOp unit_op(int threads, Tracer* tracer) override {
    const std::string line = serve_requests(seed_, graph_, threads).hit[0];
    Span span(tracer, "exec.unit_op", "exec");
    std::string body = reference_server_->handle(line);
    return {span.stop(), std::move(body)};
  }

 private:
  struct Slot {
    char kind;
    const std::string* line;
    const std::string* id;
    const char* span;
  };

  static lc::serve::ServerOptions server_options() {
    lc::serve::ServerOptions o;
    o.cache_capacity = kCacheCapacity;
    return o;
  }

  static void expect_ok(const std::string& body, const std::string& what) {
    if (body.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("serve_mixed: " + what + " failed: " + body);
    }
  }

  /// Request i of the closed loop.  Each block of 8 holds one cold solve at a
  /// seeded position in 1..6 (so colds are never adjacent), and 5 hit solves
  /// plus 2 resistance_batch in seeded order.
  [[nodiscard]] Slot slot(std::int64_t i) const {
    const auto block = static_cast<std::uint64_t>(i / kBlock);
    const int pos = static_cast<int>(i % kBlock);
    lc::graph::SplitMix64 rng(derive_seed(seed_, "serve_mixed.block", block));
    const int cold_pos = 1 + static_cast<int>(rng.next_below(kBlock - 2));
    if (pos == cold_pos) {
      const std::size_t k = block % kServeColdKeys;
      return {'c', &req_.cold[k], &req_.cold_ids[k], "serve::Client::call[cold]"};
    }
    char kinds[kBlock - 1] = {'h', 'h', 'h', 'h', 'h', 'b', 'b'};
    for (int a = kBlock - 2; a > 0; --a) {
      std::swap(kinds[a], kinds[rng.next_below(static_cast<std::uint64_t>(a + 1))]);
    }
    const char kind = kinds[pos < cold_pos ? pos : pos - 1];
    const std::uint64_t pick =
        derive_seed(seed_, "serve_mixed.req", static_cast<std::uint64_t>(i));
    if (kind == 'h') {
      const std::size_t k = pick % kServeHitRhs;
      return {'h', &req_.hit[k], &req_.hit_ids[k], "serve::Client::call[hit]"};
    }
    const std::size_t k = pick % kServePairSets;
    return {'b', &req_.batch[k], &req_.batch_ids[k], "serve::Client::call[batch]"};
  }

  std::uint64_t seed_;
  lc::graph::Graph graph_;
  ServeRequests req_;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> counts_;
  std::unique_ptr<lc::serve::Server> reference_server_;
  std::unique_ptr<lc::serve::Server> server_;
  std::unique_ptr<lc::serve::Frontend> frontend_;
  int port_ = 0;
  std::exception_ptr runner_error_;
  std::thread runner_;  // last: joined before the frontend it runs is destroyed
};

// --- maxflow_ipm / mincost_ipm ------------------------------------------------------

/// Shared loop of the two IPM workloads: one unit op = one exact IPM run on
/// instance (i mod the instance count), threads 1.
template <class Instance>
class IpmWorkload : public Workload {
 public:
  IpmWorkload(std::uint64_t seed, int instances) : seed_(seed), count_(instances) {}

  [[nodiscard]] std::int64_t pin_ops() const override { return 1; }

  void setup() override {
    for (int j = 0; j < count_; ++j) {
      instances_.push_back(make(static_cast<std::uint64_t>(j)));
    }
    (void)unit_op(1, nullptr);
  }

  LoopResult run(double seconds, std::int64_t min_ops, Tracer* tracer,
                 HostReference& ref) override {
    const lc::exec::ThreadScope threads(1);
    LoopResult r;
    const StopRule stop{Clock::now(), seconds, min_ops};
    for (std::int64_t i = 0; !stop.done(i); ++i) {
      const Instance& inst = instances_[static_cast<std::size_t>(i) % instances_.size()];
      lc::clique::Network net(inst.g.num_vertices());
      Tracer* t = tracer_for(tracer, i);
      ++r.attempted;
      try {
        Span span(t, span_name(), "flow", i);
        const bool ok = solve(inst, net).ok;
        record(r, span.stop(), t != nullptr, tracer != nullptr);
        if (!ok) ++r.failed;
      } catch (const std::exception& e) {
        ++r.failed;
        r.check_failures.push_back(e.what());
      }
      if (i == 0) {
        r.model_rounds = net.rounds();
        r.model_words = net.words_sent();
      }
      ref.maybe_run();
    }
    r.start = stop.start;
    r.end = Clock::now();
    return r;
  }

  UnitOp unit_op(int threads, Tracer* tracer) override {
    const lc::exec::ThreadScope scope(threads);
    lc::clique::Network net(instances_[0].g.num_vertices());
    Span span(tracer, "exec.unit_op", "exec");
    const Outcome o = solve(instances_[0], net);
    const double ms = span.stop();
    return {ms, o.fingerprint + counts_suffix(net)};
  }

 protected:
  struct Outcome {
    bool ok = false;          ///< matches the instance's oracle
    std::string fingerprint;  ///< the flow and its value or cost
  };

  [[nodiscard]] virtual Instance make(std::uint64_t index) const = 0;
  [[nodiscard]] virtual const char* span_name() const = 0;
  virtual Outcome solve(const Instance& inst, lc::clique::Network& net) const = 0;

  std::uint64_t seed_;

 private:
  int count_;
  std::vector<Instance> instances_;
};

class MaxflowIpm final : public IpmWorkload<FlowInstance> {
 public:
  explicit MaxflowIpm(std::uint64_t seed) : IpmWorkload(seed, 20) {}
  [[nodiscard]] std::string_view name() const override { return "maxflow_ipm"; }

 private:
  [[nodiscard]] FlowInstance make(std::uint64_t index) const override {
    return maxflow_instance(seed_, index);
  }
  [[nodiscard]] const char* span_name() const override { return "flow::max_flow_clique"; }
  Outcome solve(const FlowInstance& f, lc::clique::Network& net) const override {
    const auto rep = lc::flow::max_flow_clique(f.g, 0, f.g.num_vertices() - 1, net,
                                               maxflow_options(f.oracle_value));
    return {rep.value == f.oracle_value,
            hex(hash_vec(rep.flow)) + ":" + std::to_string(rep.value)};
  }
};

class MincostIpm final : public IpmWorkload<MinCostInstance> {
 public:
  explicit MincostIpm(std::uint64_t seed) : IpmWorkload(seed, 24) {}
  [[nodiscard]] std::string_view name() const override { return "mincost_ipm"; }

 private:
  [[nodiscard]] MinCostInstance make(std::uint64_t index) const override {
    return mincost_instance(seed_, index);
  }
  [[nodiscard]] const char* span_name() const override { return "flow::min_cost_flow_clique"; }
  Outcome solve(const MinCostInstance& m, lc::clique::Network& net) const override {
    const auto rep = lc::flow::min_cost_flow_clique(m.g, m.sigma, net, mincost_options());
    return {rep.feasible && rep.cost == m.oracle_cost,
            hex(hash_vec(rep.flow)) + ":" + std::to_string(rep.cost)};
  }
};

// --- euler_orient -----------------------------------------------------------------

class EulerOrient final : public Workload {
 public:
  static constexpr int kThreads = 2;
  /// Orientation time differs by up to 25% between graphs of the same shape,
  /// so a run cycles through several and its medians mix them.
  static constexpr int kGraphs = 16;

  explicit EulerOrient(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "euler_orient"; }
  [[nodiscard]] std::int64_t pin_ops() const override { return 2; }

  void setup() override {
    for (int j = 0; j < kGraphs; ++j) {
      graphs_.push_back(euler_graph(seed_, static_cast<std::uint64_t>(j)));
    }
    (void)unit_op(kThreads, nullptr);
  }

  LoopResult run(double seconds, std::int64_t min_ops, Tracer* tracer,
                 HostReference& ref) override {
    const lc::exec::ThreadScope threads(kThreads);
    LoopResult r;
    const StopRule stop{Clock::now(), seconds, min_ops};
    for (std::int64_t i = 0; !stop.done(i); ++i) {
      const lc::graph::Graph& g = graphs_[static_cast<std::size_t>(i % kGraphs)];
      lc::clique::Network net = network(g);
      Tracer* t = tracer_for(tracer, i);
      ++r.attempted;
      try {
        Span span(t, "euler::eulerian_orientation", "euler", i);
        const auto res = lc::euler::eulerian_orientation(g, net);
        record(r, span.stop(), t != nullptr, tracer != nullptr);
        if (!lc::euler::is_eulerian_orientation(g, res.orientation)) ++r.failed;
      } catch (const std::exception& e) {
        ++r.failed;
        r.check_failures.push_back(e.what());
      }
      if (i < pin_ops()) {
        r.model_rounds += net.rounds();
        r.model_words += net.words_sent();
      }
      ref.maybe_run();
    }
    r.start = stop.start;
    r.end = Clock::now();
    return r;
  }

  UnitOp unit_op(int threads, Tracer* tracer) override {
    const lc::exec::ThreadScope scope(threads);
    lc::clique::Network net = network(graphs_[0]);
    Span span(tracer, "exec.unit_op", "exec");
    const auto res = lc::euler::eulerian_orientation(graphs_[0], net);
    const double ms = span.stop();
    return {ms, hex(hash_vec(res.orientation)) + counts_suffix(net)};
  }

 private:
  [[nodiscard]] static lc::clique::Network network(const lc::graph::Graph& g) {
    lc::clique::Network net(g.num_vertices());
    net.set_routing_mode(lc::clique::RoutingMode::kExecuted);
    return net;
  }

  std::uint64_t seed_;
  std::vector<lc::graph::Graph> graphs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lap_solve_sparse", "serve_mixed", "maxflow_ipm", "mincost_ipm", "euler_orient"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "lap_solve_sparse") return std::make_unique<LapSolveSparse>(seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "maxflow_ipm") return std::make_unique<MaxflowIpm>(seed);
  if (name == "mincost_ipm") return std::make_unique<MincostIpm>(seed);
  if (name == "euler_orient") return std::make_unique<EulerOrient>(seed);
  return nullptr;
}

}  // namespace lapbench
