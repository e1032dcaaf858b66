// Fixed-seed mutation fuzzers for the parsers of untrusted bytes other than
// LAPCKPT (CheckpointFuzz in test_checkpoint.cpp): the DIMACS max-flow and
// min-cost readers and the edge-list reader, the fault-spec grammar, and the
// serve daemon's JSON parser and request handler.  Each seed input is fixed;
// LAPCLIQUE_TEST_SEED moves only the mutations (SplitMix64 from base_seed()):
// byte flips, planted extreme integers and doubles, truncations, repeated
// spans, and deep nesting.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "io/dimacs.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "test_seed.hpp"

namespace lapclique {
namespace {

using test::base_seed;

constexpr int kMutations = 300;  // per seed input

/// Tokens a mutation plants: integers at and past the int, int64 and input
/// caps, and doubles that overflow, underflow, are not numbers, or are
/// malformed.
const std::vector<std::string> kPlanted = {
    "-1",         "0",          "2147483647",           "2147483648",
    "4294967295", "4294967297", "9223372036854775807",  "9223372036854775808",
    "-9223372036854775808",     "99999999999999999999", "1000001",
    "50000001",   "1e999",      "-1e999",               "1e-400",
    "4.9e-324",   "nan",        "inf",                  "-0.0",
    "0.9999999",  "1.2.3",      "1e5e5",                "-e5"};

/// What separates the fields of the three formats: a planted token may
/// replace the whole field between two of these.
constexpr const char* kDelimiters = " \n,=@:[]{}";

/// One mutation of `seed`; `open` is what deep nesting repeats (empty: the
/// format has no nesting, and no mutation nests).
std::string mutate(const std::string& seed, graph::SplitMix64& rng,
                   const std::string& open) {
  std::string s = seed;
  const auto at = [&] { return static_cast<std::size_t>(rng.next_below(s.size() + 1)); };
  switch (rng.next_below(open.empty() ? 4 : 5)) {
    case 0: {  // byte flips
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < flips && !s.empty(); ++i) {
        const std::size_t p = rng.next_below(s.size());
        s[p] = static_cast<char>(s[p] ^ static_cast<char>(1 + rng.next_below(255)));
      }
      break;
    }
    case 1: {  // an extreme token over a whole field, or over up to 4 bytes
      std::size_t p = at();
      std::size_t len = std::min<std::size_t>(rng.next_below(5), s.size() - p);
      if (rng.next_below(2) == 0) {
        const std::size_t before = p == 0 ? std::string::npos
                                          : s.find_last_of(kDelimiters, p - 1);
        p = before == std::string::npos ? 0 : before + 1;
        const std::size_t after = s.find_first_of(kDelimiters, p);
        len = (after == std::string::npos ? s.size() : after) - p;
      }
      s.replace(p, len, kPlanted[rng.next_below(kPlanted.size())]);
      break;
    }
    case 2:  // truncation
      s.resize(at());
      break;
    case 3: {  // a span of up to 16 bytes, repeated up to 200 times
      const std::size_t p = at();
      const std::size_t len = std::min<std::size_t>(1 + rng.next_below(16), s.size() - p);
      const std::string span = s.substr(p, len);
      std::string repeated;
      for (std::uint64_t i = rng.next_below(200); i > 0; --i) repeated += span;
      s.insert(p, repeated);
      break;
    }
    default: {  // deep nesting: up to 2000 openers
      std::string deep;
      for (std::uint64_t i = 1 + rng.next_below(2000); i > 0; --i) deep += open;
      s.insert(at(), deep);
      break;
    }
  }
  return s;
}

// --- DIMACS and edge-list readers -----------------------------------------

/// Every mutation of `seed` reads, or throws io::ParseError; nothing else
/// escapes the reader.
template <typename Read>
void fuzz_reader(const char* name, const std::string& seed, const Read& read) {
  graph::SplitMix64 rng(base_seed());
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(seed, rng, "");
    std::istringstream in(input);
    try {
      (void)read(in);
    } catch (const io::ParseError&) {
      // The one allowed failure.
    } catch (const std::exception& ex) {
      ADD_FAILURE() << name << " mutation " << i << " threw a non-ParseError: "
                    << ex.what() << "\ninput:\n"
                    << input.substr(0, 400);
    }
  }
}

TEST(DimacsFuzz, MaxFlowReaderReadsOrRejects) {
  io::MaxFlowProblem p;
  p.g = graph::random_flow_network(8, 20, 9, 1);
  p.source = 0;
  p.sink = 7;
  std::ostringstream seed;
  io::write_dimacs_max_flow(seed, p);
  fuzz_reader("max-flow", seed.str(),
              [](std::istream& in) { return io::read_dimacs_max_flow(in); });
}

TEST(DimacsFuzz, MinCostReaderReadsOrRejects) {
  io::MinCostProblem p;
  p.g = graph::random_unit_cost_digraph(8, 20, 9, 2);
  p.sigma = graph::feasible_unit_demands(p.g, 2, 3);
  std::ostringstream seed;
  io::write_dimacs_min_cost(seed, p);
  fuzz_reader("min-cost", seed.str(),
              [](std::istream& in) { return io::read_dimacs_min_cost(in); });
}

TEST(DimacsFuzz, EdgeListReaderReadsOrRejects) {
  std::ostringstream seed;
  io::write_edge_list(seed, graph::with_random_weights(
                                graph::random_connected_gnm(8, 16, 4), 8, 5));
  fuzz_reader("edge-list", seed.str(),
              [](std::istream& in) { return io::read_edge_list(in); });
}

// --- fault-spec grammar ----------------------------------------------------

TEST(FaultSpecFuzz, SpecsParseToTextThatParsesBackUnchanged) {
  const std::vector<std::string> seeds = {
      "drop=0.01,corrupt=0.005,dup=0.02,crash=2@40,retries=4,ipm-nan@3,"
      "solver-nan@all",
      "preempt=3,sock-drop=0.1,sock-partial=0.05,sock-slow=0.2,solver-nan@7",
      "drop=0.5,corrupt=0.4999,crash=1@3,crash=0@7,retries=0"};
  graph::SplitMix64 rng(base_seed());
  for (const std::string& seed : seeds) {
    for (int i = 0; i < kMutations; ++i) {
      const std::string spec = mutate(seed, rng, "");
      std::string printed;
      try {
        printed = fault::to_string(fault::parse_fault_spec(spec));
      } catch (const std::invalid_argument&) {
        continue;  // rejected
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "'" << spec << "' threw a non-invalid_argument: " << ex.what();
        continue;
      }
      // "" is the spec whose every clause is at its default: no faults.
      if (printed.empty()) continue;
      try {
        EXPECT_EQ(fault::to_string(fault::parse_fault_spec(printed)), printed)
            << "from '" << spec << "'";
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "'" << spec << "' printed as '" << printed
                      << "', which does not parse: " << ex.what();
      }
    }
  }
}

// --- serve: JSON parser and request handler --------------------------------

TEST(ServeFuzz, EveryLineGetsOneResponseAndStateSurvives) {
  namespace json = obs::json;
  serve::Server server;
  // The probe graph's name is no single mutation of "fuzz".
  const std::string probe_load =
      R"({"op":"graph.load","id":"p","name":"probe",)"
      R"("edges":[[0,1],[1,2,2],[2,3],[3,0,0.5],[1,3]]})";
  const std::string probe =
      R"({"op":"solve","id":"q","graph":"probe","eps":1e-6,"b":[1,-1,0.5,-0.5]})";
  ASSERT_TRUE(json::parse(server.handle(probe_load)).at("ok").as_bool());
  const std::string baseline = server.handle(probe);
  ASSERT_TRUE(json::parse(baseline).at("ok").as_bool()) << baseline;

  // Each seed request, paired for a graph.load with the request that uses
  // the graph: every mutated load that succeeds is followed by that use.
  // Every failure must be the client's: a value the ops cannot compute with
  // is refused at load, never met by a later op as an internal error.
  const std::string fuzz_solve =
      R"({"op":"solve","id":"s","graph":"fuzz","eps":1e-6,"b":[1,-1,0.5,-0.5]})";
  const std::string net_flow =
      R"({"op":"flow.max","id":"m","graph":"net","s":0,"t":3,)"
      R"("iteration_scale":0.01,"max_iterations":4})";
  const std::vector<std::pair<std::string, std::string>> seeds = {
      {R"({"op":"health","id":"h"})", ""},
      {R"({"op":"graph.load","id":"l","name":"fuzz",)"
       R"("edges":[[0,1,2.5],[1,2],[2,3,0.5],[3,0],[0,2,1]]})",
       fuzz_solve},
      {fuzz_solve, ""},
      {R"({"op":"resistance_batch","id":7,"graph":"fuzz","eps":0.0001,)"
       R"("pairs":[[0,2],[1,3]]})",
       ""},
      {R"({"op":"graph.load","id":"a","name":"net",)"
       R"("arcs":[[0,1,3],[0,2,2,1],[1,3,2],[2,3,3],[1,2,1]]})",
       net_flow},
      {net_flow, ""}};
  const auto expect_not_internal = [](const json::Value& v, const std::string& body,
                                      const std::string& line) {
    if (!v.at("ok").as_bool()) {
      EXPECT_NE(v.at("error").at("code").as_string(), "internal")
          << body << "\nfor: " << line.substr(0, 400);
    }
  };
  graph::SplitMix64 rng(base_seed());
  for (const auto& [seed, use] : seeds) {
    for (int i = 0; i < kMutations; ++i) {
      const std::string line =
          mutate(seed, rng, rng.next_below(2) == 0 ? "[" : "{\"a\":");
      bool parses = true;
      try {
        (void)json::parse(line);
      } catch (const std::invalid_argument&) {
        parses = false;
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "json::parse threw a non-invalid_argument: "
                      << ex.what();
      }
      std::string body;
      try {
        body = server.handle(line);
      } catch (...) {
        ADD_FAILURE() << "an exception escaped Server::handle for: "
                      << line.substr(0, 400);
        continue;
      }
      ASSERT_EQ(body.find('\n'), std::string::npos) << body;
      const json::Value v = json::parse(body);
      ASSERT_EQ(v.kind(), json::Value::Kind::kObject) << body;
      expect_not_internal(v, body, line);
      if (!parses) {
        ASSERT_FALSE(v.at("ok").as_bool()) << body;
        EXPECT_EQ(v.at("error").at("code").as_string(), "parse") << body;
        EXPECT_TRUE(v.at("error").contains("offset")) << body;
      }
      if (!use.empty() && v.at("ok").as_bool()) {
        const std::string used = server.handle(use);
        expect_not_internal(json::parse(used), used, line);
      }
    }
  }
  EXPECT_EQ(server.handle(probe), baseline);
}

}  // namespace
}  // namespace lapclique
