// Serve-layer determinism and hardening suite.
//
// The contract under test (docs/SERVING.md): response bodies are a pure
// function of the request — independent of request interleaving, server
// thread count, cache hits/misses, and evictions — and cache hits skip
// artifact construction (a hit adds no miss, and a request's own run block
// never holds a construction phase).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.hpp"
#include "fault/fault_plan.hpp"
#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/frontend.hpp"
#include "serve/server.hpp"
#include "solver/laplacian_solver.hpp"
#include "test_seed.hpp"

namespace lapclique::serve {
namespace {

namespace json = obs::json;

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Response doubles round-trip exactly through the %.17g dump, but integral
/// values come back as kInt — accept both, as the server does.
double num(const json::Value& v) {
  return v.kind() == json::Value::Kind::kInt ? static_cast<double>(v.as_int())
                                             : v.as_double();
}

graph::Graph test_graph(int n, int m, std::uint64_t salt) {
  return graph::with_random_weights(
      graph::random_connected_gnm(n, m, test::base_seed() + salt), 8.0,
      test::base_seed() + salt + 1);
}

linalg::Vec random_b(int n, std::uint64_t salt) {
  std::mt19937_64 rng(test::base_seed() + salt);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Vec b(static_cast<std::size_t>(n));
  for (double& x : b) x = dist(rng);
  return b;
}

std::string load_request(const std::string& name, const graph::Graph& g,
                         const std::string& id = "load") {
  json::Object req;
  req.emplace("op", "graph.load");
  req.emplace("id", id);
  req.emplace("name", name);
  req.emplace("n", g.num_vertices());
  json::Array edges;
  for (const graph::Edge& e : g.edges()) {
    json::Array row;
    row.push_back(e.u);
    row.push_back(e.v);
    row.push_back(e.w);
    edges.push_back(json::Value(std::move(row)));
  }
  req.emplace("edges", json::Value(std::move(edges)));
  return json::Value(std::move(req)).dump();
}

std::string load_arcs_request(const std::string& name, const graph::Digraph& g,
                              const std::string& id = "load") {
  json::Object req;
  req.emplace("op", "graph.load");
  req.emplace("id", id);
  req.emplace("name", name);
  req.emplace("n", g.num_vertices());
  json::Array arcs;
  for (const graph::Arc& a : g.arcs()) {
    json::Array row;
    row.push_back(a.from);
    row.push_back(a.to);
    row.push_back(a.cap);
    row.push_back(a.cost);
    arcs.push_back(json::Value(std::move(row)));
  }
  req.emplace("arcs", json::Value(std::move(arcs)));
  return json::Value(std::move(req)).dump();
}

json::Value vec_json(const linalg::Vec& b) {
  json::Array a;
  for (double x : b) a.push_back(x);
  return {std::move(a)};
}

std::string solve_request(const std::string& graph_name, const linalg::Vec& b,
                          double eps, const std::string& id,
                          const std::string& routing = "") {
  json::Object req;
  req.emplace("op", "solve");
  req.emplace("id", id);
  req.emplace("graph", graph_name);
  req.emplace("eps", eps);
  req.emplace("b", vec_json(b));
  if (!routing.empty()) req.emplace("routing", routing);
  return json::Value(std::move(req)).dump();
}

std::string batch_request(const std::string& graph_name,
                          const std::vector<linalg::Vec>& bs, double eps,
                          const std::string& id) {
  json::Object req;
  req.emplace("op", "solve_batch");
  req.emplace("id", id);
  req.emplace("graph", graph_name);
  req.emplace("eps", eps);
  json::Array rhs;
  for (const linalg::Vec& b : bs) rhs.push_back(vec_json(b));
  req.emplace("rhs", json::Value(std::move(rhs)));
  return json::Value(std::move(req)).dump();
}

json::Value parse_ok(const std::string& body) {
  const json::Value v = json::parse(body);
  EXPECT_TRUE(v.at("ok").as_bool()) << body;
  return v;
}

void expect_error(const std::string& body, const std::string& code) {
  const json::Value v = json::parse(body);
  ASSERT_FALSE(v.at("ok").as_bool()) << body;
  EXPECT_EQ(v.at("error").at("code").as_string(), code) << body;
}

std::vector<double> response_x(const json::Value& v) {
  std::vector<double> x;
  for (const json::Value& e : v.at("result").at("x").as_array()) {
    x.push_back(num(e));
  }
  return x;
}

TEST(Serve, SolveMatchesDirectSolverBitwise) {
  Server server;
  const graph::Graph g = test_graph(22, 66, 1);
  const linalg::Vec b = random_b(22, 3);
  parse_ok(server.handle(load_request("g", g)));
  const json::Value resp =
      parse_ok(server.handle(solve_request("g", b, 1e-6, "s1")));

  const solver::LaplacianSolver direct(g);
  const linalg::Vec want = direct.solve(b, 1e-6);
  const std::vector<double> got = response_x(resp);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits_of(got[i]), bits_of(want[i])) << i;
  }
  // The run block reflects a real charged execution.
  EXPECT_GT(resp.at("run").at("rounds").as_int(), 0);
}

TEST(Serve, CacheHitSkipsConstructionAndKeepsBodyBytes) {
  // The acceptance criterion: the first solve misses and the second hits
  // (one more hit, no more misses), yet the response bytes match exactly.
  // Construction rounds live in the artifact block; the run block holds
  // only the request's own solve.
  Server server;
  const graph::Graph g = test_graph(24, 70, 5);
  const linalg::Vec b = random_b(24, 7);
  parse_ok(server.handle(load_request("g", g)));
  const std::string req = solve_request("g", b, 1e-6, "s");

  const std::string cold_body = server.handle(req);
  CacheStats s = server.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);

  const std::string warm_body = server.handle(req);
  s = server.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(warm_body, cold_body);

  const json::Value resp = parse_ok(warm_body);
  const json::Value& built = resp.at("artifact").at("construction").at("phases");
  EXPECT_GT(built.at("solver/sparsify").as_int(), 0);
  EXPECT_GT(built.at("solver/range_estimation").as_int(), 0);
  const json::Value& run = resp.at("run").at("phases");
  EXPECT_GT(run.at("solver/chebyshev").as_int(), 0);
  for (const char* phase :
       {"solver/sparsify", "solver/gather_sparsifier", "solver/range_estimation"}) {
    EXPECT_FALSE(run.contains(phase)) << phase;
  }
}

TEST(Serve, InterleavingInvariance) {
  // The same request set in a different order (which flips who is the cache
  // miss) must produce byte-identical bodies per request id.
  const graph::Graph g1 = test_graph(20, 55, 11);
  const graph::Graph g2 = test_graph(18, 48, 13);
  const std::vector<std::string> requests = {
      solve_request("g1", random_b(20, 21), 1e-6, "a"),
      solve_request("g2", random_b(18, 22), 1e-6, "b"),
      solve_request("g1", random_b(20, 23), 1e-4, "c"),
      batch_request("g2", {random_b(18, 24), random_b(18, 25)}, 1e-6, "d"),
      solve_request("g1", random_b(20, 21), 1e-6, "e"),  // same b as "a"
  };

  const auto run = [&](bool reversed) {
    Server server;
    parse_ok(server.handle(load_request("g1", g1)));
    parse_ok(server.handle(load_request("g2", g2)));
    std::vector<std::string> order = requests;
    if (reversed) std::reverse(order.begin(), order.end());
    std::map<std::string, std::string> by_id;
    for (const std::string& r : order) {
      const std::string body = server.handle(r);
      by_id[json::parse(body).at("id").as_string()] = body;
    }
    return by_id;
  };

  const auto forward = run(false);
  const auto backward = run(true);
  ASSERT_EQ(forward.size(), requests.size());
  EXPECT_EQ(forward, backward);
  // "e" repeats "a"'s request under a different id: identical except the id.
}

TEST(Serve, ThreadCountInvariance) {
  // The same request with the pool at 1 and 8 threads yields byte-identical
  // bodies.  A "threads" member is ignored like any unknown member: the
  // daemon's --threads sets the pool once.
  const graph::Graph g = test_graph(26, 80, 31);
  const linalg::Vec b = random_b(26, 33);
  const std::string req = solve_request("g", b, 1e-6, "s");
  std::string with_threads = req;
  with_threads.insert(with_threads.size() - 1, ",\"threads\":0");
  std::vector<std::string> bodies;
  for (const int threads : {1, 8}) {
    const exec::ThreadScope scope(threads);
    Server server;
    parse_ok(server.handle(load_request("g", g)));
    bodies.push_back(server.handle(req));
    bodies.push_back(server.handle(with_threads));
  }
  for (std::size_t i = 1; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i], bodies[0]) << i;
  }
}

TEST(Serve, EvictionMidStreamNeverChangesBodies) {
  // Capacity-1 server: every alternation between graphs evicts, so each
  // request is a cold rebuild.  Bodies must match the big-cache server's.
  const graph::Graph g1 = test_graph(16, 40, 41);
  const graph::Graph g2 = test_graph(17, 44, 43);
  std::vector<std::string> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(
        solve_request("g1", random_b(16, 50 + static_cast<std::uint64_t>(i)),
                      1e-6, "a" + std::to_string(i)));
    requests.push_back(
        solve_request("g2", random_b(17, 60 + static_cast<std::uint64_t>(i)),
                      1e-6, "b" + std::to_string(i)));
  }

  ServerOptions small;
  small.cache_capacity = 1;
  Server thrashing(small);
  Server roomy;
  for (Server* s : {&thrashing, &roomy}) {
    parse_ok(s->handle(load_request("g1", g1)));
    parse_ok(s->handle(load_request("g2", g2)));
  }
  for (const std::string& r : requests) {
    EXPECT_EQ(thrashing.handle(r), roomy.handle(r));
  }
  EXPECT_GT(thrashing.cache_stats().evictions, 0);
  EXPECT_EQ(thrashing.cache_stats().hits, 0);
  EXPECT_GT(roomy.cache_stats().hits, 0);
  EXPECT_EQ(roomy.cache_stats().evictions, 0);
}

TEST(Serve, BatchColumnsBitwiseEqualSingleSolves) {
  Server server;
  const graph::Graph g = test_graph(21, 60, 71);
  const std::vector<linalg::Vec> bs = {random_b(21, 73), random_b(21, 74),
                                       random_b(21, 75)};
  parse_ok(server.handle(load_request("g", g)));

  std::vector<std::vector<double>> singles;
  std::int64_t single_rounds = 0;
  for (std::size_t c = 0; c < bs.size(); ++c) {
    const json::Value resp = parse_ok(server.handle(
        solve_request("g", bs[c], 1e-6, std::string("s").append(std::to_string(c)))));
    singles.push_back(response_x(resp));
    single_rounds += resp.at("run").at("rounds").as_int();
  }

  const json::Value batch =
      parse_ok(server.handle(batch_request("g", bs, 1e-6, "batch")));
  const json::Array& cols = batch.at("result").at("columns").as_array();
  ASSERT_EQ(cols.size(), bs.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const json::Array& col = cols[c].as_array();
    ASSERT_EQ(col.size(), singles[c].size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(bits_of(num(col[i])), bits_of(singles[c][i])) << c << "," << i;
    }
  }
  // Charge replay: the batch network accrues exactly the k sequential solves.
  EXPECT_EQ(batch.at("run").at("rounds").as_int(), single_rounds);
}

TEST(Serve, ResistanceMatchesDirectSolve) {
  graph::Graph path(4);
  path.add_edge(0, 1, 1.0);
  path.add_edge(1, 2, 1.0);
  path.add_edge(2, 3, 1.0);
  Server server;
  parse_ok(server.handle(load_request("p", path)));

  json::Object req;
  req.emplace("op", "resistance");
  req.emplace("id", "r");
  req.emplace("graph", "p");
  req.emplace("eps", 1e-8);
  req.emplace("u", 0);
  req.emplace("v", 3);
  const json::Value resp =
      parse_ok(server.handle(json::Value(std::move(req)).dump()));

  const double got = num(resp.at("result").at("resistance"));
  EXPECT_NEAR(got, 3.0, 1e-6);  // series resistance of three unit edges

  const solver::LaplacianSolver direct(path);
  linalg::Vec chi(4, 0.0);
  chi[0] = 1.0;
  chi[3] = -1.0;
  const double want = linalg::dot(chi, direct.solve(chi, 1e-8));
  EXPECT_EQ(bits_of(got), bits_of(want));
}

TEST(Serve, FlowMaxMatchesDirectIpm) {
  graph::Digraph dg(4);
  dg.add_arc(0, 1, 2);
  dg.add_arc(0, 2, 2);
  dg.add_arc(1, 3, 2);
  dg.add_arc(2, 3, 1);
  dg.add_arc(1, 2, 1);
  Server server;
  parse_ok(server.handle(load_arcs_request("net", dg)));

  // Reduced budget on both sides (the repo's FastBudget convention): the
  // finishing augmenting paths still make the value exact.
  json::Object req;
  req.emplace("op", "flow.max");
  req.emplace("id", "f");
  req.emplace("graph", "net");
  req.emplace("s", 0);
  req.emplace("t", 3);
  req.emplace("iteration_scale", 0.05);
  const json::Value resp =
      parse_ok(server.handle(json::Value(std::move(req)).dump()));

  clique::Network net(4);
  flow::MaxFlowIpmOptions fopt;
  fopt.iteration_scale = 0.05;
  const flow::MaxFlowIpmReport want = flow::max_flow_clique(dg, 0, 3, net, fopt);
  EXPECT_EQ(resp.at("result").at("value").as_int(), want.value);
  EXPECT_EQ(want.value, 3);
  EXPECT_EQ(resp.at("run").at("rounds").as_int(), want.run.rounds);
  const json::Array& flow_json = resp.at("result").at("flow").as_array();
  ASSERT_EQ(flow_json.size(), want.flow.size());
  for (std::size_t i = 0; i < flow_json.size(); ++i) {
    EXPECT_EQ(flow_json[i].as_int(), want.flow[i]) << i;
  }
}

TEST(Serve, FlowMincostMatchesDirectIpm) {
  // min_cost_flow_clique is the unit-capacity IPM: route 2 units from 0 to
  // 2, one along the cheap path and one along the direct expensive arc.
  graph::Digraph dg(3);
  dg.add_arc(0, 1, 1, 1);
  dg.add_arc(1, 2, 1, 1);
  dg.add_arc(0, 2, 1, 5);
  Server server;
  parse_ok(server.handle(load_arcs_request("net", dg)));

  json::Object req;
  req.emplace("op", "flow.mincost");
  req.emplace("id", "m");
  req.emplace("graph", "net");
  // sigma(v) = inflow - outflow: vertex 0 supplies 2 units, vertex 2 takes
  // them.
  json::Array sigma;
  sigma.push_back(-2);
  sigma.push_back(0);
  sigma.push_back(2);
  req.emplace("sigma", json::Value(std::move(sigma)));
  const json::Value resp =
      parse_ok(server.handle(json::Value(std::move(req)).dump()));

  clique::Network net(3);
  const std::vector<std::int64_t> demand = {-2, 0, 2};
  const flow::MinCostIpmReport want =
      flow::min_cost_flow_clique(dg, demand, net, flow::MinCostIpmOptions{});
  EXPECT_TRUE(resp.at("result").at("feasible").as_bool());
  EXPECT_EQ(resp.at("result").at("cost").as_int(), 7);
  EXPECT_EQ(resp.at("result").at("feasible").as_bool(), want.feasible);
  EXPECT_EQ(resp.at("result").at("cost").as_int(), want.cost);
  EXPECT_EQ(resp.at("run").at("rounds").as_int(), want.run.rounds);
}

TEST(Serve, RoutingModeIsPartOfTheCacheKey) {
  Server server;
  const graph::Graph g = test_graph(18, 50, 81);
  const linalg::Vec b = random_b(18, 83);
  parse_ok(server.handle(load_request("g", g)));
  const std::string charged = server.handle(solve_request("g", b, 1e-6, "s"));
  const std::string broadcast =
      server.handle(solve_request("g", b, 1e-6, "s", "broadcast"));
  EXPECT_NE(charged, broadcast);  // different accounting, different artifact
  EXPECT_EQ(server.cache_stats().misses, 2);
  EXPECT_EQ(server.cache_stats().size, 2u);
  // Solutions themselves agree bit-for-bit: routing changes charges only.
  const std::vector<double> xc = response_x(json::parse(charged));
  const std::vector<double> xb = response_x(json::parse(broadcast));
  ASSERT_EQ(xc.size(), xb.size());
  for (std::size_t i = 0; i < xc.size(); ++i) {
    EXPECT_EQ(bits_of(xc[i]), bits_of(xb[i])) << i;
  }
}

TEST(Serve, FactorKernelFollowsTheInstance) {
  // An artifact's LDL^T kernel is kAuto's choice for its graph: dense at 256
  // vertices, sparse for E1-n's 512-vertex instance.  No request member
  // picks it: "numerics" is ignored like any unknown member, so the same
  // solve carrying it hits the same artifact and returns the same body.
  Server server;
  const graph::Graph small_graph = graph::random_connected_gnm(256, 1024, 29);
  const graph::Graph large_graph = graph::random_connected_gnm(512, 2048, 13);
  parse_ok(server.handle(load_request("small", small_graph)));
  parse_ok(server.handle(load_request("large", large_graph)));

  const json::Value small =
      parse_ok(server.handle(solve_request("small", random_b(256, 401), 1e-6, "s")));
  EXPECT_EQ(small.at("artifact").at("numerics_chosen").as_string(), "dense");
  EXPECT_EQ(small.at("artifact").at("factor_fill").as_int(), 256 * 257 / 2);

  const std::string plain = solve_request("large", random_b(512, 403), 1e-6, "l");
  const std::string body = server.handle(plain);
  EXPECT_EQ(server.cache_stats().misses, 2);
  const json::Value large = parse_ok(body);
  EXPECT_EQ(large.at("artifact").at("numerics_chosen").as_string(), "sparse");
  EXPECT_EQ(large.at("artifact").at("factor_fill").as_int(), 104650);
  EXPECT_FALSE(large.at("artifact").contains("numerics"));

  // The construction block reports the factor it built.
  for (const json::Value* artifact : {&small.at("artifact"), &large.at("artifact")}) {
    const json::Value& built = artifact->at("construction");
    EXPECT_EQ(built.at("numerics").as_string(),
              artifact->at("numerics_chosen").as_string());
    EXPECT_EQ(built.at("factor_fill").as_int(), artifact->at("factor_fill").as_int());
  }

  std::string with_dense = plain;
  with_dense.insert(with_dense.size() - 1, ",\"numerics\":\"dense\"");
  const CacheStats before = server.cache_stats();
  EXPECT_EQ(server.handle(with_dense), body);
  EXPECT_EQ(server.cache_stats().hits, before.hits + 1);
  EXPECT_EQ(server.cache_stats().misses, 2);
}

TEST(Serve, ResistanceBatchMatchesScalarResistanceBitwise) {
  Server server;
  const graph::Graph g = test_graph(16, 44, 411);
  parse_ok(server.handle(load_request("g", g)));

  const std::vector<std::pair<int, int>> pairs = {{0, 15}, {2, 9}, {5, 11}};
  json::Object req;
  req.emplace("op", "resistance_batch");
  req.emplace("id", "rb");
  req.emplace("graph", "g");
  req.emplace("eps", 1e-8);
  json::Array pairs_json;
  for (const auto& [u, v] : pairs) {
    json::Array row;
    row.push_back(u);
    row.push_back(v);
    pairs_json.push_back(json::Value(std::move(row)));
  }
  req.emplace("pairs", json::Value(std::move(pairs_json)));
  const json::Value batch = parse_ok(server.handle(json::Value(std::move(req)).dump()));
  EXPECT_EQ(server.cache_stats().misses, 1);
  const json::Array& rs = batch.at("result").at("resistances").as_array();
  ASSERT_EQ(rs.size(), pairs.size());
  ASSERT_EQ(batch.at("result").at("stats").as_array().size(), pairs.size());

  // Each entry bit-equals the scalar "resistance" op for that pair (which
  // also proves the batch rode the SAME cached artifact: second lookup hits).
  std::int64_t scalar_rounds = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    json::Object sreq;
    sreq.emplace("op", "resistance");
    sreq.emplace("id", "r" + std::to_string(i));
    sreq.emplace("graph", "g");
    sreq.emplace("eps", 1e-8);
    sreq.emplace("u", pairs[i].first);
    sreq.emplace("v", pairs[i].second);
    const CacheStats before = server.cache_stats();
    const json::Value scalar = parse_ok(server.handle(json::Value(std::move(sreq)).dump()));
    EXPECT_EQ(server.cache_stats().hits, before.hits + 1) << i;  // shared artifact
    EXPECT_EQ(server.cache_stats().misses, 1) << i;
    EXPECT_EQ(bits_of(num(rs[i])), bits_of(num(scalar.at("result").at("resistance"))))
        << "pair " << i;
    scalar_rounds += scalar.at("run").at("rounds").as_int();
  }
  // Charge replay: the batch accrues exactly the k scalar queries' rounds
  // (shared construction; one broadcast per pair in both accountings).
  EXPECT_EQ(batch.at("run").at("rounds").as_int(), scalar_rounds);

  // Malformed pair lists are client errors.
  expect_error(server.handle("{\"op\":\"resistance_batch\",\"graph\":\"g\","
                             "\"eps\":0.001,\"pairs\":[],\"id\":\"e\"}"),
               "bad_request");
  expect_error(server.handle("{\"op\":\"resistance_batch\",\"graph\":\"g\","
                             "\"eps\":0.001,\"pairs\":[[0,0]],\"id\":\"e\"}"),
               "bad_request");
  expect_error(server.handle("{\"op\":\"resistance_batch\",\"graph\":\"g\","
                             "\"eps\":0.001,\"pairs\":[[0,99]],\"id\":\"e\"}"),
               "bad_request");
  expect_error(server.handle("{\"op\":\"resistance_batch\",\"graph\":\"g\","
                             "\"eps\":0.001,\"pairs\":[[0]],\"id\":\"e\"}"),
               "bad_request");
}

TEST(Serve, MalformedRequestsGetLocatedErrorsAndLeaveStateIntact) {
  Server server;
  const graph::Graph g = test_graph(14, 34, 91);
  const linalg::Vec b = random_b(14, 93);
  parse_ok(server.handle(load_request("g", g)));
  const std::string good = solve_request("g", b, 1e-6, "s");
  const std::string baseline = server.handle(good);
  const CacheStats before = server.cache_stats();

  const std::vector<std::pair<std::string, std::string>> table = {
      {"{\"op\":\"solve\"", "parse"},
      {"not json at all", "parse"},
      {"[1,2,3]", "bad_request"},
      {"{\"id\":\"x\"}", "bad_request"},  // missing op
      {"{\"op\":17}", "bad_request"},     // op must be a string
      {"{\"op\":\"nope\",\"id\":\"u\"}", "unknown_op"},
      {solve_request("missing", b, 1e-6, "e1"), "unknown_graph"},
      {solve_request("g", b, 0.9, "e2"), "bad_request"},   // eps out of range
      {solve_request("g", b, -1.0, "e3"), "bad_request"},  // eps <= 0
      {solve_request("g", linalg::Vec(3, 1.0), 1e-6, "e4"),
       "bad_request"},  // wrong b size
      {solve_request("g", b, 1e-6, "e5", "psychic"),
       "bad_request"},  // unknown routing
      {"{\"op\":\"graph.drop\",\"name\":\"missing\",\"id\":\"e6\"}",
       "unknown_graph"},
      {"{\"op\":\"graph.load\",\"name\":\"h\",\"id\":\"e7\"}",
       "bad_request"},  // neither edges nor arcs
      {"{\"op\":\"graph.load\",\"name\":\"h\",\"edges\":[[0,0]],\"id\":\"e8\"}",
       "bad_request"},  // self-loop
      {"{\"op\":\"graph.load\",\"name\":\"h\",\"edges\":[[0,1,-2]],"
       "\"id\":\"e9\"}",
       "bad_request"},  // non-positive weight
      {"{\"op\":\"resistance\",\"graph\":\"g\",\"eps\":0.001,\"u\":0,"
       "\"v\":99,\"id\":\"e10\"}",
       "bad_request"},  // vertex out of range
      {"{\"op\":\"graph.load\",\"id\":1,\"name\":\"g\","
       "\"edges\":[[9223372036854775807,0]]}",
       "bad_request"},  // endpoint + 1 would overflow
  };
  for (const auto& [line, code] : table) {
    expect_error(server.handle(line), code);
  }

  // Parse errors carry a byte offset pointing into the line.
  const std::string trunc = "{\"op\":\"solve\"";
  const json::Value err = json::parse(server.handle(trunc));
  ASSERT_EQ(err.at("error").at("code").as_string(), "parse");
  const std::int64_t offset = err.at("error").at("offset").as_int();
  EXPECT_GE(offset, 0);
  EXPECT_LE(offset, static_cast<std::int64_t>(trunc.size()));

  // Error ids echo the request id when one was readable.
  const json::Value echoed =
      json::parse(server.handle(solve_request("missing", b, 1e-6, "echo-me")));
  EXPECT_EQ(echoed.at("id").as_string(), "echo-me");

  // None of the failures leaked into cache or registry state: the cache
  // counters moved only for the well-formed requests that reached it, and
  // the original request still answers byte-identically (as a hit).
  const CacheStats after = server.cache_stats();
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(server.handle(good), baseline);
}

TEST(Serve, LaplacianOpErrorsKeepTheirCodesAndMessages) {
  // The four Laplacian ops share one handler, yet each keeps its own error
  // texts: the exact code and message of every precondition, per op.
  Server server;
  parse_ok(server.handle(load_request("g", test_graph(6, 9, 95))));
  graph::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  parse_ok(server.handle(load_request("split", split)));
  graph::Digraph dg(3);
  dg.add_arc(0, 1);
  dg.add_arc(1, 2);
  parse_ok(server.handle(load_arcs_request("dg", dg)));

  const auto req = [](const std::string& op, const std::string& graph,
                      const std::string& fields) {
    return std::string("{\"op\":\"").append(op).append("\",\"graph\":\"")
        .append(graph).append("\",\"eps\":0.001,").append(fields)
        .append(",\"id\":\"e\"}");
  };
  const std::string connected = "graph must be connected";
  const std::string connected_solve =
      "graph must be connected (solve components separately)";
  const std::vector<std::pair<std::string, std::string>> table = {
      {req("solve", "dg", "\"b\":[1,-1,0]"), "solve requires an undirected graph"},
      {req("solve", "split", "\"b\":[1,0,0,-1]"), connected_solve},
      {req("solve", "g", "\"b\":[1,-1]"), "\"b\" must have n = 6 entries"},
      {req("solve_batch", "dg", "\"rhs\":[[1,-1,0]]"),
       "solve requires an undirected graph"},
      {req("solve_batch", "split", "\"rhs\":[[1,0,0,-1]]"), connected_solve},
      {req("solve_batch", "g", "\"rhs\":[[1,-1,0,0,0,0],[1,-1]]"),
       "every rhs vector must have n = 6 entries"},
      {req("resistance", "dg", "\"u\":0,\"v\":1"),
       "resistance requires an undirected graph"},
      {req("resistance", "split", "\"u\":0,\"v\":3"), connected},
      {req("resistance", "g", "\"u\":2,\"v\":2"), "u and v must differ"},
      {req("resistance", "g", "\"u\":6,\"v\":0"), "vertex u out of range [0, 6)"},
      {req("resistance", "g", "\"u\":0,\"v\":-1"), "vertex v out of range [0, 6)"},
      {req("resistance_batch", "dg", "\"pairs\":[[0,1]]"),
       "resistance_batch requires an undirected graph"},
      {req("resistance_batch", "split", "\"pairs\":[[0,3]]"), connected},
      {req("resistance_batch", "g", "\"pairs\":[[0,1],[3,3]]"),
       "pair endpoints must differ"},
      {req("resistance_batch", "g", "\"pairs\":[[0,6]]"),
       "pair vertex out of range [0, 6)"},
      {req("resistance_batch", "g", "\"pairs\":[]"), "\"pairs\" must be non-empty"},
  };
  for (const auto& [line, message] : table) {
    const json::Value v = json::parse(server.handle(line));
    ASSERT_FALSE(v.at("ok").as_bool()) << line;
    EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << line;
    EXPECT_EQ(v.at("error").at("message").as_string(), message) << line;
  }
}

TEST(Serve, OversizedRequestIsRejectedWithoutParsing) {
  ServerOptions opt;
  opt.max_request_bytes = 128;
  Server server(opt);
  const std::string big = "{\"op\":\"solve\",\"pad\":\"" +
                          std::string(200, 'x') + "\"}";
  expect_error(server.handle(big), "limit");
  // Under the limit still works.
  expect_error(server.handle("{\"op\":\"nope\"}"), "unknown_op");
}

TEST(Serve, TruncationFuzzNeverCrashesOrCorruptsState) {
  Server server;
  const graph::Graph g = test_graph(12, 28, 101);
  const linalg::Vec b = random_b(12, 103);
  parse_ok(server.handle(load_request("g", g)));
  const std::string good = solve_request("g", b, 1e-6, "s");
  const std::string baseline = server.handle(good);

  // Every strict prefix must yield a well-formed error response.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::string body = server.handle(good.substr(0, len));
    const json::Value v = json::parse(body);
    ASSERT_FALSE(v.at("ok").as_bool()) << "prefix length " << len;
  }
  // Random splices, seeded from the suite seed.
  std::mt19937_64 rng(test::base_seed() + 107);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutant = good;
    const std::size_t pos = rng() % mutant.size();
    mutant[pos] = static_cast<char>(rng() % 256);
    const std::string body = server.handle(mutant);
    const json::Value v = json::parse(body);
    ASSERT_EQ(v.kind(), json::Value::Kind::kObject) << "trial " << trial;
  }
  // The server still answers the original request byte-identically.
  EXPECT_EQ(server.handle(good), baseline);
}

/// The `parse` error `body` carries, with its offset.
std::int64_t parse_error_offset_of(const std::string& body) {
  const json::Value v = json::parse(body);
  EXPECT_FALSE(v.at("ok").as_bool()) << body;
  EXPECT_EQ(v.at("error").at("code").as_string(), "parse") << body;
  if (!v.at("error").contains("offset")) {
    ADD_FAILURE() << "parse error without an offset: " << body;
    return -1;
  }
  return v.at("error").at("offset").as_int();
}

TEST(Serve, DeepNestingIsALocatedParseError) {
  // 30 KB of '[' recursed once per level, past the stack.  The parser stops
  // at its nesting limit, on the first '[' past it.
  Server server;
  EXPECT_EQ(parse_error_offset_of(server.handle(std::string(30000, '['))), 256);
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"a\":";
  EXPECT_EQ(parse_error_offset_of(server.handle(objects)), 256 * 5);
  parse_ok(server.handle("{\"op\":\"health\",\"id\":\"after\"}"));
}

TEST(Serve, BadNumbersAreLocatedParseErrors) {
  // Each token is refused at its first byte (offset 20): one out of range,
  // two with no digits, two with a second fraction or exponent, and one
  // whose exponent has no digits.
  Server server;
  for (const char* number : {"1e999", "-e5", "1.2.3", "1e5e5", "1e", "--1"}) {
    const std::string line =
        std::string("{\"op\":\"health\",\"id\":") + number + "}";
    EXPECT_EQ(parse_error_offset_of(server.handle(line)), 20) << line;
  }
  // Valid numbers still parse, to the bits strtod gives them.
  for (const char* number : {"0.1", "-2.5e-300", "1e308",
                             "123456789012345678901", "-0.0",
                             "4.9406564584124654e-324"}) {
    const json::Value v = json::parse(std::string("[") + number + "]");
    EXPECT_EQ(bits_of(v.as_array()[0].as_double()),
              bits_of(std::strtod(number, nullptr)))
        << number;
  }
}

TEST(Serve, ConcurrentSubmissionMatchesSequentialBodies) {
  // The TSan target: 8 client threads hammer one server with a shared
  // request set; every response must equal the sequentially computed body.
  const graph::Graph g1 = test_graph(19, 52, 111);
  const graph::Graph g2 = test_graph(15, 38, 113);
  std::vector<std::string> requests;
  for (int i = 0; i < 8; ++i) {
    const auto salt = static_cast<std::uint64_t>(120 + i);
    requests.push_back(solve_request(i % 2 == 0 ? "g1" : "g2",
                                     random_b(i % 2 == 0 ? 19 : 15, salt),
                                     1e-6, std::string("q").append(std::to_string(i))));
  }
  requests.push_back(batch_request(
      "g1", {random_b(19, 131), random_b(19, 132)}, 1e-6, "qb"));
  requests.push_back(
      "{\"op\":\"resistance\",\"graph\":\"g2\",\"eps\":0.0001,\"u\":0,"
      "\"v\":7,\"id\":\"qr\"}");

  Server sequential;
  parse_ok(sequential.handle(load_request("g1", g1)));
  parse_ok(sequential.handle(load_request("g2", g2)));
  std::vector<std::string> expected;
  for (const std::string& r : requests) expected.push_back(sequential.handle(r));

  Server concurrent;
  parse_ok(concurrent.handle(load_request("g1", g1)));
  parse_ok(concurrent.handle(load_request("g2", g2)));
  constexpr int kClients = 8;
  constexpr int kRepeats = 3;  // repeats force hit-path races too
  std::vector<std::vector<std::string>> got(
      kClients, std::vector<std::string>(requests.size() * kRepeats));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          // Stagger the order per client so misses and hits interleave.
          const std::size_t j =
              (i + static_cast<std::size_t>(c)) % requests.size();
          got[static_cast<std::size_t>(c)]
             [static_cast<std::size_t>(rep) * requests.size() + i] =
                 concurrent.handle(requests[j]) + "\x1f" + std::to_string(j);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& per_client : got) {
    for (const std::string& tagged : per_client) {
      const std::size_t sep = tagged.rfind('\x1f');
      ASSERT_NE(sep, std::string::npos);
      const std::size_t j = std::stoul(tagged.substr(sep + 1));
      EXPECT_EQ(tagged.substr(0, sep), expected[j]) << "request " << j;
    }
  }
}

TEST(Serve, ServeLoopStopsAtShutdown) {
  const graph::Graph g = test_graph(10, 22, 141);
  std::ostringstream requests;
  requests << load_request("g", g) << "\n"
           << "\n"  // blank lines are skipped
           << solve_request("g", random_b(10, 143), 1e-5, "s") << "\n"
           << "{\"op\":\"shutdown\",\"id\":\"bye\"}\n"
           << solve_request("g", random_b(10, 144), 1e-5, "after") << "\n";
  std::istringstream in(requests.str());
  std::ostringstream out;
  Server server;
  const int handled = server.serve(in, out);
  EXPECT_EQ(handled, 3);  // load, solve, shutdown — never the trailing solve
  EXPECT_TRUE(server.shutdown_requested());
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(json::parse(line).kind(), json::Value::Kind::kObject);
  }
  EXPECT_EQ(count, 3);
  const json::Value last = json::parse(out.str().substr(
      out.str().rfind("{\"id\":\"bye\"")));
  EXPECT_TRUE(last.at("result").at("stopping").as_bool());
}

TEST(Serve, CacheClearForcesRebuildWithIdenticalBody) {
  Server server;
  const graph::Graph g = test_graph(16, 42, 151);
  const linalg::Vec b = random_b(16, 153);
  parse_ok(server.handle(load_request("g", g)));
  const std::string req = solve_request("g", b, 1e-6, "s");
  const std::string first = server.handle(req);
  parse_ok(server.handle("{\"op\":\"cache.clear\",\"id\":\"c\"}"));
  EXPECT_EQ(server.cache_stats().size, 0u);
  const std::string second = server.handle(req);
  EXPECT_EQ(server.cache_stats().misses, 2);  // rebuilt from scratch...
  EXPECT_EQ(server.cache_stats().hits, 0);
  EXPECT_EQ(second, first);                   // ...to the same bytes

  const json::Value stats =
      parse_ok(server.handle("{\"op\":\"cache.stats\",\"id\":\"st\"}"));
  EXPECT_EQ(stats.at("result").at("misses").as_int(), 2);
  EXPECT_EQ(stats.at("result").at("size").as_int(), 1);
}

TEST(Serve, GraphRegistryLifecycle) {
  Server server;
  const graph::Graph g = test_graph(12, 26, 161);
  const linalg::Vec b = random_b(12, 163);

  // Load twice under the same name: the reload wins, hash is stable.
  const json::Value first = parse_ok(server.handle(load_request("g", g)));
  const json::Value second = parse_ok(server.handle(load_request("g", g)));
  EXPECT_EQ(first.at("result").at("hash").as_string(),
            second.at("result").at("hash").as_string());
  EXPECT_EQ(first.at("result").at("n").as_int(), 12);
  EXPECT_EQ(first.at("result").at("m").as_int(), 26);

  // Directed and undirected ops are kept apart.
  graph::Digraph dg(3);
  dg.add_arc(0, 1, 1);
  dg.add_arc(1, 2, 1);
  parse_ok(server.handle(load_arcs_request("d", dg)));
  expect_error(server.handle(solve_request("d", linalg::Vec(3, 0.0), 1e-4, "x")),
               "bad_request");
  expect_error(server.handle("{\"op\":\"flow.max\",\"graph\":\"g\",\"s\":0,"
                             "\"t\":1,\"id\":\"x\"}"),
               "bad_request");

  // Drop removes exactly the named graph.
  parse_ok(server.handle("{\"op\":\"graph.drop\",\"name\":\"g\",\"id\":\"x\"}"));
  expect_error(server.handle(solve_request("g", b, 1e-6, "x")), "unknown_graph");
  parse_ok(server.handle("{\"op\":\"flow.max\",\"graph\":\"d\",\"s\":0,"
                         "\"t\":2,\"iteration_scale\":0.05,\"id\":\"ok\"}"));

  // A disconnected undirected graph is refused by solve with a clear error.
  graph::Graph disc(4);
  disc.add_edge(0, 1, 1.0);
  disc.add_edge(2, 3, 1.0);
  parse_ok(server.handle(load_request("disc", disc)));
  expect_error(server.handle(solve_request("disc", linalg::Vec(4, 0.0), 1e-4,
                                           "x")),
               "bad_request");
}

// --- deadlines, health, load accounting -----------------------------------

TEST(Serve, DeadlineZeroAbortsDeterministicallyAtAdmission) {
  // "deadline_ms":0 is already expired when the admission check runs, so the
  // abort point — and therefore the whole response body — is deterministic.
  Server a;
  Server b;
  const graph::Graph g = test_graph(12, 28, 201);
  for (Server* s : {&a, &b}) parse_ok(s->handle(load_request("g", g)));
  std::string req = solve_request("g", random_b(12, 203), 1e-4, "dl");
  req.insert(req.size() - 1, ",\"deadline_ms\":0");

  const std::string body_a = a.handle(req);
  const std::string body_b = b.handle(req);
  EXPECT_EQ(body_a, body_b);
  const json::Value v = json::parse(body_a);
  ASSERT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_EQ(v.at("error").at("at").as_string(), "admission");
  EXPECT_EQ(v.at("id").as_string(), "dl");
  // The aborted request reached neither the cache nor the registry.
  EXPECT_EQ(a.cache_stats().misses, 0);
  EXPECT_EQ(a.load().deadline_exceeded, 1);
}

TEST(Serve, DeadlineNegativeIsRejected) {
  // So is a deadline past kMaxDeadlineMs, which now() plus it would
  // overflow; that message names the range.
  Server server;
  const auto health = [&server](const std::string& ms) {
    return server.handle("{\"op\":\"health\",\"id\":\"x\",\"deadline_ms\":" + ms +
                         "}");
  };
  expect_error(health("-5"), "bad_request");
  for (const std::string ms : {"4611686018428", "9223372036854775807"}) {
    const std::string body = health(ms);
    expect_error(body, "bad_request");
    EXPECT_NE(body.find("out of range [0, 4611686018427]"), std::string::npos) << body;
  }
  EXPECT_EQ(server.load().deadline_exceeded, 0);
}

TEST(Serve, DeadlineAbortsLongFlowAtBatchBoundaryWithPartialRun) {
  // A 1ms deadline on a full-budget IPM run: admission passes (the check is
  // microseconds after arming), then the cooperative poll at a checkpoint-
  // batch boundary fires.  The error is located at an "ipm batch" and the
  // response carries the aborted run's partial accounting.
  Server server;
  const graph::Graph base = test_graph(28, 90, 211);
  graph::Digraph dg(base.num_vertices());
  for (const graph::Edge& e : base.edges()) {
    dg.add_arc(e.u, e.v, 2, 1);
    dg.add_arc(e.v, e.u, 2, 1);
  }
  parse_ok(server.handle(load_arcs_request("net", dg)));

  json::Object req;
  req.emplace("op", "flow.max");
  req.emplace("id", "slow");
  req.emplace("graph", "net");
  req.emplace("s", 0);
  req.emplace("t", base.num_vertices() - 1);
  req.emplace("deadline_ms", 1);
  const json::Value v =
      json::parse(server.handle(json::Value(std::move(req)).dump()));
  ASSERT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_EQ(v.at("error").at("at").as_string().rfind("ipm batch", 0), 0u)
      << v.at("error").at("at").as_string();
  // Partial accounting of the run that was cut short.
  ASSERT_NE(v.as_object().find("run"), v.as_object().end());
  EXPECT_GE(v.at("run").at("rounds").as_int(), 0);
  EXPECT_EQ(server.load().deadline_exceeded, 1);
}

TEST(Serve, GenerousDeadlineAndDefaultDeadlineDoNotPerturbBodies) {
  // A deadline that never fires must leave response bytes untouched — both
  // the per-request field and the server-wide default.
  Server plain;
  ServerOptions with_default;
  with_default.default_deadline_ms = 600000;
  Server defaulted(with_default);
  const graph::Graph g = test_graph(14, 34, 221);
  const linalg::Vec b = random_b(14, 223);
  for (Server* s : {&plain, &defaulted}) {
    parse_ok(s->handle(load_request("g", g)));
  }
  const std::string req = solve_request("g", b, 1e-5, "s");

  const std::string baseline = plain.handle(req);
  // 4611686018427 is kMaxDeadlineMs with steady_clock's int64 nanoseconds.
  for (const std::string ms : {"600000", "4611686018427"}) {
    std::string roomy = req;
    roomy.insert(roomy.size() - 1, ",\"deadline_ms\":" + ms);
    EXPECT_EQ(plain.handle(roomy), baseline) << ms;
  }
  EXPECT_EQ(defaulted.handle(req), baseline);
  EXPECT_EQ(plain.load().deadline_exceeded, 0);
  EXPECT_EQ(defaulted.load().deadline_exceeded, 0);
}

TEST(Serve, HealthReportsLoadAndCacheState) {
  Server server;
  const json::Value h1 =
      parse_ok(server.handle("{\"op\":\"health\",\"id\":\"h1\"}"));
  const json::Value& r1 = h1.at("result");
  EXPECT_EQ(r1.at("in_flight").as_int(), 1);  // this very request
  EXPECT_FALSE(r1.at("draining").as_bool());
  EXPECT_EQ(r1.at("queue_depth").as_int(), 0);
  EXPECT_EQ(r1.at("active_connections").as_int(), 0);
  EXPECT_EQ(r1.at("graphs").as_int(), 0);
  EXPECT_EQ(r1.at("cache").at("size").as_int(), 0);
  EXPECT_EQ(r1.at("shed").as_int(), 0);

  const graph::Graph g = test_graph(12, 28, 231);
  parse_ok(server.handle(load_request("g", g)));
  parse_ok(server.handle(solve_request("g", random_b(12, 233), 1e-4, "s")));
  const json::Value h2 =
      parse_ok(server.handle("{\"op\":\"health\",\"id\":\"h2\"}"));
  const json::Value& r2 = h2.at("result");
  EXPECT_EQ(r2.at("completed").as_int(), 3);  // h1 + load + solve
  EXPECT_EQ(r2.at("graphs").as_int(), 1);
  EXPECT_EQ(r2.at("cache").at("misses").as_int(), 1);
  EXPECT_EQ(r2.at("deadline_exceeded").as_int(), 0);
}

TEST(Serve, ShutdownOpBeginsDrain) {
  Server server;
  EXPECT_FALSE(server.draining());
  parse_ok(server.handle("{\"op\":\"shutdown\",\"id\":\"bye\"}"));
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(server.draining());
}

// --- the connection executor ----------------------------------------------

TEST(WorkerSet, RunsAllTasksAndDrainsQueueOnClose) {
  std::atomic<int> ran{0};
  {
    exec::WorkerSet ws(3);
    EXPECT_EQ(ws.workers(), 3);
    for (int i = 0; i < 50; ++i) {
      ws.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    ws.close();
    ws.join();
    EXPECT_THROW(ws.submit([] {}), std::runtime_error);
  }
  EXPECT_EQ(ran.load(), 50);  // close() drains the queue, never discards
}

TEST(WorkerSet, SurvivesThrowingTasks) {
  std::atomic<int> ran{0};
  exec::WorkerSet ws(2);
  for (int i = 0; i < 10; ++i) {
    ws.submit([&ran, i] {
      if (i % 2 == 0) throw std::runtime_error("task failure");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  ws.close();
  ws.join();
  EXPECT_EQ(ran.load(), 5);  // odd tasks all ran despite even ones throwing
}

// --- the socket frontend ---------------------------------------------------

/// A live daemon on an ephemeral loopback port, drained on destruction.
struct TestDaemon {
  Server server;
  Frontend frontend;
  std::thread runner;

  explicit TestDaemon(ServerOptions sopt = {}, FrontendOptions fopt = {})
      : server(sopt), frontend(server, fopt) {
    frontend.listen();
    runner = std::thread([this] { frontend.run(); });
  }
  ~TestDaemon() {
    server.begin_drain();
    if (runner.joinable()) runner.join();  // tests may have joined already
  }
  [[nodiscard]] int port() const { return frontend.port(); }
};

int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string raw_read_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  ADD_FAILURE() << "connection closed before a full line; got: " << line;
  return line;
}

TEST(ServeFrontend, ConcurrentSoakMatchesSequentialBodies) {
  // N concurrent clients x {well-formed, malformed, deadline-expiring}
  // against the socket frontend; every response byte-equals the sequential
  // twin's.  (Shed responses are covered by their own deterministic test —
  // they depend on instantaneous load, not on the request.)
  const graph::Graph g1 = test_graph(16, 42, 241);
  const graph::Graph g2 = test_graph(13, 30, 243);
  std::vector<std::string> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(solve_request(i % 2 == 0 ? "g1" : "g2",
                                     random_b(i % 2 == 0 ? 16 : 13,
                                              static_cast<std::uint64_t>(250 + i)),
                                     1e-4, "q" + std::to_string(i)));
  }
  requests.push_back(batch_request("g2", {random_b(13, 261)}, 1e-4, "qb"));
  requests.push_back("{\"op\":\"nope\",\"id\":\"bad-op\"}");
  requests.push_back("{\"op\":\"solve\",\"id\":");  // malformed: parse error
  std::string expired = solve_request("g1", random_b(16, 263), 1e-4, "qdl");
  expired.insert(expired.size() - 1, ",\"deadline_ms\":0");
  requests.push_back(expired);

  Server sequential;
  parse_ok(sequential.handle(load_request("g1", g1)));
  parse_ok(sequential.handle(load_request("g2", g2)));
  std::vector<std::string> expected;
  for (const std::string& r : requests) expected.push_back(sequential.handle(r));

  constexpr int kClients = 4;
  FrontendOptions fopt;
  fopt.workers = kClients;  // every persistent client gets a worker
  TestDaemon daemon({}, fopt);
  {
    Client loader(daemon.port());
    parse_ok(loader.call(load_request("g1", g1)));
    parse_ok(loader.call(load_request("g2", g2)));
  }

  constexpr int kRepeats = 3;
  std::vector<std::vector<std::string>> got(
      kClients, std::vector<std::string>(requests.size() * kRepeats));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(daemon.port());
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t j =
              (i + static_cast<std::size_t>(c)) % requests.size();
          got[static_cast<std::size_t>(c)]
             [static_cast<std::size_t>(rep) * requests.size() + i] =
                 client.call(requests[j]) + "\x1f" + std::to_string(j);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& per_client : got) {
    for (const std::string& tagged : per_client) {
      const std::size_t sep = tagged.rfind('\x1f');
      ASSERT_NE(sep, std::string::npos);
      const std::size_t j = std::stoul(tagged.substr(sep + 1));
      EXPECT_EQ(tagged.substr(0, sep), expected[j]) << "request " << j;
    }
  }
  EXPECT_GE(daemon.server.load().accepted, kClients + 1);
  EXPECT_EQ(daemon.server.load().shed, 0);
}

TEST(ServeFrontend, ShedsBeyondMaxPendingWithRetryHint) {
  // One worker, zero queue: a connection arriving while the worker holds
  // another connection is shed deterministically — an "overloaded" line with
  // the depth-derived retry_after_ms, then close.
  FrontendOptions fopt;
  fopt.workers = 1;
  fopt.max_pending = 0;
  TestDaemon daemon({}, fopt);

  Client holder(daemon.port());
  // Completing a call proves the worker has claimed this connection (workers
  // own connections for their lifetime), so the next accept must shed.
  parse_ok(holder.call("{\"op\":\"health\",\"id\":\"h\"}"));

  Client second(daemon.port(), ClientOptions{.max_attempts = 1});
  const std::string body = second.call("{\"op\":\"health\",\"id\":\"h2\"}");
  const json::Value v = json::parse(body);
  ASSERT_FALSE(v.at("ok").as_bool()) << body;
  EXPECT_EQ(v.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(v.at("error").at("retry_after_ms").as_int(), 25);  // depth 0
  EXPECT_EQ(daemon.server.load().shed, 1);

  // A second run of the same overload produces byte-identical shed lines.
  Client third(daemon.port(), ClientOptions{.max_attempts = 1});
  EXPECT_EQ(third.call("{\"op\":\"health\",\"id\":\"h3\"}"), body);
}

TEST(ServeFrontend, OversizedNewlineFreeStreamGetsLimitErrorAndRecovers) {
  // The byte cap applies to the accumulating buffer: a newline-free stream
  // past the cap gets one "limit" error, the rest of the line is discarded
  // as it arrives, and the connection then serves the next request normally.
  ServerOptions sopt;
  sopt.max_request_bytes = 256;
  TestDaemon daemon(sopt, {});

  const int fd = raw_connect(daemon.port());
  raw_send(fd, std::string(600, 'x'));  // no newline: oversized mid-line
  const std::string limit_line = raw_read_line(fd);
  const json::Value limit = json::parse(limit_line);
  ASSERT_FALSE(limit.at("ok").as_bool());
  EXPECT_EQ(limit.at("error").at("code").as_string(), "limit");

  raw_send(fd, std::string(300, 'y'));  // more of the same doomed line
  raw_send(fd, "\n");                   // finally ends — no second error
  raw_send(fd, "{\"op\":\"health\",\"id\":\"after\"}\n");
  const json::Value after = json::parse(raw_read_line(fd));
  EXPECT_TRUE(after.at("ok").as_bool());
  EXPECT_EQ(after.at("id").as_string(), "after");
  ::close(fd);
}

TEST(ServeFrontend, SockFaultsPreserveCompletedResponseBytes) {
  // The acceptance test: armed sock-drop/sock-partial/sock-slow plan,
  // concurrent retrying clients — every COMPLETED response byte-equals the
  // clean sequential run.  Retries make this sound because all ops are
  // idempotent; truncated lines are discarded by the client, never returned.
  const graph::Graph g = test_graph(14, 36, 271);
  std::vector<std::string> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(solve_request(
        "g", random_b(14, static_cast<std::uint64_t>(280 + i)), 1e-4,
        "f" + std::to_string(i)));
  }
  requests.push_back("{\"op\":\"cache.stats\",\"id\":\"cs\"}");

  Server sequential;
  parse_ok(sequential.handle(load_request("g", g)));
  std::map<std::string, std::string> expected;
  for (const std::string& r : requests) {
    const std::string body = sequential.handle(r);
    expected[json::parse(body).at("id").as_string()] = body;
  }

  fault::FaultPlan plan(
      fault::parse_fault_spec("sock-drop=0.1,sock-partial=0.1,sock-slow=0.05"),
      test::base_seed());
  constexpr int kClients = 4;
  FrontendOptions fopt;
  fopt.workers = kClients + 1;  // reconnecting clients briefly double up
  fopt.max_pending = 64;        // never shed: this test is about transport
  fopt.faults = &plan;
  TestDaemon daemon({}, fopt);
  {
    Client loader(daemon.port(), ClientOptions{.max_attempts = 16});
    parse_ok(loader.call(load_request("g", g)));
  }

  std::vector<std::thread> clients;
  std::vector<std::vector<std::string>> got(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions copt;
      copt.max_attempts = 16;  // fault rate ~0.2/op: 16 tries is vanishing
      copt.backoff_initial_ms = 1;
      copt.backoff_max_ms = 20;
      Client client(daemon.port(), copt);
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t j =
              (i + static_cast<std::size_t>(c)) % requests.size();
          got[static_cast<std::size_t>(c)].push_back(client.call(requests[j]));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (const auto& per_client : got) {
    for (const std::string& body : per_client) {
      const std::string rid = json::parse(body).at("id").as_string();
      // cache.stats drifts with load (hit/miss counters are shared state);
      // it participates to stress the transport, not the byte contract.
      if (rid == "cs") continue;
      ASSERT_TRUE(expected.count(rid)) << body;
      EXPECT_EQ(body, expected.at(rid));
    }
  }
  // The plan actually chewed on the transport.
  const fault::SockStats fs = plan.sock_stats();
  EXPECT_GT(fs.ops, 0);
  EXPECT_GT(fs.drops + fs.partials + fs.slows, 0);
}

TEST(ServeFrontend, DrainUnderLoadLeavesNoTruncatedLines) {
  // SIGTERM-equivalent (begin_drain) in the middle of a client storm: every
  // response a client completes must be a full parseable line, the frontend
  // must come to rest, and post-drain connections must be refused.
  FrontendOptions fopt;
  fopt.workers = 3;
  TestDaemon daemon({}, fopt);

  constexpr int kClients = 3;
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions copt;
      copt.max_attempts = 2;  // fail fast once the daemon is gone
      copt.backoff_initial_ms = 1;
      copt.backoff_max_ms = 5;
      Client client(daemon.port(), copt);
      for (int i = 0; i < 200; ++i) {
        try {
          const std::string body = client.call(
              "{\"op\":\"health\",\"id\":\"c" + std::to_string(c) + "-" +
              std::to_string(i) + "\"}");
          const json::Value v = json::parse(body);  // full line or bust
          EXPECT_TRUE(v.at("ok").as_bool());
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          return;  // drained out from under us — expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  daemon.server.begin_drain();
  for (std::thread& t : clients) t.join();
  daemon.runner.join();  // run() must return once drained
  EXPECT_GT(completed.load(), 0);

  // The listener is gone: connecting now must fail.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(daemon.port()));
  EXPECT_NE(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(fd);
}

TEST(ServeFrontend, ShutdownOpDrainsTheFrontend) {
  TestDaemon daemon;
  Client client(daemon.port());
  parse_ok(client.call("{\"op\":\"health\",\"id\":\"h\"}"));
  const json::Value bye = parse_ok(client.call("{\"op\":\"shutdown\",\"id\":\"bye\"}"));
  EXPECT_TRUE(bye.at("result").at("stopping").as_bool());
  daemon.runner.join();  // the op alone must bring the accept loop down
  EXPECT_TRUE(daemon.server.draining());
}

}  // namespace
}  // namespace lapclique::serve
