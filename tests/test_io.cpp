// DIMACS / edge-list I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "flow/dinic.hpp"
#include "graph/generators.hpp"
#include "io/dimacs.hpp"

namespace lapclique::io {
namespace {

TEST(DimacsMaxFlow, ParsesWellFormedInstance) {
  std::istringstream in(
      "c example\n"
      "p max 4 5\n"
      "n 1 s\n"
      "n 4 t\n"
      "a 1 2 3\n"
      "a 1 3 2\n"
      "a 2 3 1\n"
      "a 2 4 2\n"
      "a 3 4 3\n");
  const MaxFlowProblem p = read_dimacs_max_flow(in);
  EXPECT_EQ(p.g.num_vertices(), 4);
  EXPECT_EQ(p.g.num_arcs(), 5);
  EXPECT_EQ(p.source, 0);
  EXPECT_EQ(p.sink, 3);
  EXPECT_EQ(flow::dinic_max_flow(p.g, p.source, p.sink).value, 5);
}

TEST(DimacsMaxFlow, RoundTrip) {
  MaxFlowProblem p;
  p.g = graph::random_flow_network(10, 25, 7, 3);
  p.source = 0;
  p.sink = 9;
  std::ostringstream out;
  write_dimacs_max_flow(out, p);
  std::istringstream in(out.str());
  const MaxFlowProblem q = read_dimacs_max_flow(in);
  ASSERT_EQ(q.g.num_arcs(), p.g.num_arcs());
  for (int a = 0; a < p.g.num_arcs(); ++a) {
    EXPECT_EQ(q.g.arc(a).from, p.g.arc(a).from);
    EXPECT_EQ(q.g.arc(a).to, p.g.arc(a).to);
    EXPECT_EQ(q.g.arc(a).cap, p.g.arc(a).cap);
  }
}

TEST(DimacsMaxFlow, RejectsMissingProblemLine) {
  std::istringstream in("n 1 s\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMaxFlow, RejectsMissingSink) {
  std::istringstream in("p max 2 1\nn 1 s\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMaxFlow, RejectsArcCountMismatch) {
  std::istringstream in("p max 2 2\nn 1 s\nn 2 t\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMaxFlow, RejectsOutOfRangeVertex) {
  std::istringstream in("p max 2 1\nn 1 s\nn 2 t\na 1 7 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMaxFlow, ParseErrorCarriesLineNumber) {
  std::istringstream in("p max 2 1\nn 1 s\nn 2 t\nz nonsense\n");
  try {
    (void)read_dimacs_max_flow(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
}

TEST(DimacsMaxFlow, RejectsDuplicateProblemLine) {
  std::istringstream in("p max 2 1\np max 2 1\nn 1 s\nn 2 t\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMaxFlow, RejectsDescriptorsBeforeProblemLine) {
  std::istringstream in_node("n 1 s\np max 2 1\nn 2 t\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in_node), ParseError);
  std::istringstream in_arc("a 1 2 1\np max 2 1\nn 1 s\nn 2 t\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in_arc), ParseError);
}

TEST(DimacsMaxFlow, RejectsImplausiblyLargeHeader) {
  // One flipped byte must not become a multi-gigabyte allocation.
  std::istringstream in("p max 2000000000 1\nn 1 s\nn 2 t\na 1 2 1\n");
  EXPECT_THROW((void)read_dimacs_max_flow(in), ParseError);
}

TEST(DimacsMinCost, ParsesAndConvertsSupplies) {
  std::istringstream in(
      "p min 3 2\n"
      "n 1 1\n"   // supply 1 at vertex 1 -> sigma = -1
      "n 3 -1\n"  // demand 1 at vertex 3 -> sigma = +1
      "a 1 2 0 1 4\n"
      "a 2 3 0 1 5\n");
  const MinCostProblem p = read_dimacs_min_cost(in);
  EXPECT_EQ(p.sigma[0], -1);
  EXPECT_EQ(p.sigma[1], 0);
  EXPECT_EQ(p.sigma[2], 1);
  EXPECT_EQ(p.g.arc(0).cost, 4);
}

TEST(DimacsMinCost, RejectsLowerBounds) {
  std::istringstream in("p min 2 1\na 1 2 1 1 4\n");
  EXPECT_THROW((void)read_dimacs_min_cost(in), ParseError);
}

TEST(DimacsMinCost, RejectsDuplicateProblemLine) {
  std::istringstream in("p min 2 0\np min 2 0\n");
  EXPECT_THROW((void)read_dimacs_min_cost(in), ParseError);
}

TEST(DimacsMinCost, RejectsDescriptorsBeforeProblemLine) {
  std::istringstream in("n 1 1\np min 2 0\n");
  EXPECT_THROW((void)read_dimacs_min_cost(in), ParseError);
}

TEST(DimacsMinCost, RejectsImplausiblyLargeHeader) {
  std::istringstream in("p min 3 100000000\n");
  EXPECT_THROW((void)read_dimacs_min_cost(in), ParseError);
}

TEST(DimacsMinCost, RejectsSupplyThatCannotBeNegated) {
  // sigma = -supply has no int64 value for the most negative supply.
  std::istringstream in("p min 2 0\nn 1 -9223372036854775808\n");
  try {
    (void)read_dimacs_min_cost(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& ex) {
    EXPECT_EQ(ex.line(), 2);
  }
}

TEST(DimacsMinCost, RoundTrip) {
  MinCostProblem p;
  p.g = graph::random_unit_cost_digraph(8, 20, 9, 5);
  p.sigma = graph::feasible_unit_demands(p.g, 2, 6);
  std::ostringstream out;
  write_dimacs_min_cost(out, p);
  std::istringstream in(out.str());
  const MinCostProblem q = read_dimacs_min_cost(in);
  EXPECT_EQ(q.sigma, p.sigma);
  ASSERT_EQ(q.g.num_arcs(), p.g.num_arcs());
  for (int a = 0; a < p.g.num_arcs(); ++a) {
    EXPECT_EQ(q.g.arc(a).cost, p.g.arc(a).cost);
  }
}

TEST(EdgeList, ParsesWeightedAndUnweighted) {
  std::istringstream in(
      "3 2\n"
      "0 1 2.5\n"
      "1 2\n");
  const graph::Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 2.5);
  EXPECT_DOUBLE_EQ(g.edge(1).w, 1.0);
}

TEST(EdgeList, RoundTrip) {
  const graph::Graph g =
      graph::with_random_weights(graph::random_connected_gnm(12, 30, 4), 9, 5);
  std::ostringstream out;
  write_edge_list(out, g);
  std::istringstream in(out.str());
  const graph::Graph q = read_edge_list(in);
  ASSERT_EQ(q.num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(q.edge(e).u, g.edge(e).u);
    EXPECT_DOUBLE_EQ(q.edge(e).w, g.edge(e).w);
  }
}

TEST(EdgeList, RejectsTruncatedInput) {
  std::istringstream in("3 2\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), ParseError);
}

TEST(EdgeList, RejectsNonPositiveWeight) {
  std::istringstream in("2 1\n0 1 -3\n");
  EXPECT_THROW((void)read_edge_list(in), ParseError);
}

TEST(EdgeList, RejectsNonFiniteWeight) {
  std::istringstream in_nan("2 1\n0 1 nan\n");
  EXPECT_THROW((void)read_edge_list(in_nan), ParseError);
  std::istringstream in_inf("2 1\n0 1 inf\n");
  EXPECT_THROW((void)read_edge_list(in_inf), ParseError);
}

TEST(EdgeList, RejectsTrailingEdges) {
  // More edge lines than the header promised: silently ignoring them would
  // mask a truncated or mis-stitched file.
  std::istringstream in("2 1\n0 1\n1 0\n");
  EXPECT_THROW((void)read_edge_list(in), ParseError);
}

TEST(EdgeList, RejectsImplausiblyLargeHeader) {
  std::istringstream in("3 900000000\n");
  EXPECT_THROW((void)read_edge_list(in), ParseError);
}

TEST(EdgeList, RejectsNegativeHeader) {
  std::istringstream in("-3 1\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), ParseError);
}

TEST(EdgeList, SelfLoopIsALocatedParseError) {
  // The Graph refuses self-loops too, but unlocated; the reader names the line.
  std::istringstream in("3 2\n0 1\n2 2\n");
  try {
    (void)read_edge_list(in);
    FAIL() << "a self-loop was read";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3) << e.what();
  }
}

TEST(InputCaps, EveryReaderRefusesAHeaderPastTheSharedVertexCap) {
  // A 29-byte max-flow file once allocated adjacency for ten million
  // vertices.  All three readers stop one vertex past the cap that serve's
  // graph.load and the CLI's generators use too.
  const std::string past = std::to_string(kMaxVertices + 1);
  const auto expect_refused = [](const auto& read, const std::string& doc) {
    std::istringstream in(doc);
    try {
      (void)read(in);
      ADD_FAILURE() << "read past the cap: " << doc;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 1) << e.what();
      EXPECT_NE(std::string(e.what()).find("implausibly large"), std::string::npos)
          << e.what();
    }
  };
  expect_refused([](std::istream& in) { return read_dimacs_max_flow(in); },
                 "p max " + past + " 0\nn 1 s\nn 2 t\n");
  expect_refused([](std::istream& in) { return read_dimacs_min_cost(in); },
                 "p min " + past + " 0\n");
  expect_refused([](std::istream& in) { return read_edge_list(in); }, past + " 0\n");
  expect_refused([](std::istream& in) { return read_edge_list(in); },
                 "2 " + std::to_string(kMaxArcs + 1) + "\n");
}

TEST(InputCaps, EveryReaderRefusesAValuePastTheSharedBounds) {
  // A 4-arc file with one capacity of 2^63 - 1 once overflowed max-flow's
  // int64 2U, costs past 2^61 overflowed min-cost's sum of |cost|, and an
  // edge weight of 2^63 among weights of 1 collapsed a pivot.  Each reader
  // names the line of a value past its bound and reads a value at it.
  const auto line_of_refusal = [](const auto& read, const std::string& doc) {
    std::istringstream in(doc);
    try {
      (void)read(in);
    } catch (const ParseError& e) {
      return e.line();
    }
    return 0;
  };
  const auto max_flow = [](std::istream& in) { return read_dimacs_max_flow(in); };
  const auto min_cost = [](std::istream& in) { return read_dimacs_min_cost(in); };
  const auto edge_list = [](std::istream& in) { return read_edge_list(in); };
  const std::string at = std::to_string(kMaxArcValue);
  const std::string past = std::to_string(kMaxArcValue + 1);
  const std::string max_head = "p max 4 4\nn 1 s\nn 4 t\na 1 2 1\na 1 3 1\na 2 4 1\n";
  EXPECT_EQ(line_of_refusal(max_flow, max_head + "a 3 4 9223372036854775807\n"), 7);
  EXPECT_EQ(line_of_refusal(max_flow, max_head + "a 3 4 " + past + "\n"), 7);
  EXPECT_EQ(line_of_refusal(max_flow, max_head + "a 3 4 " + at + "\n"), 0);
  const std::string min_head = "p min 3 2\na 1 2 0 1 1\n";
  EXPECT_EQ(line_of_refusal(min_cost, min_head + "a 2 3 0 " + past + " 1\n"), 3);
  EXPECT_EQ(line_of_refusal(min_cost, min_head + "a 2 3 0 1 " + past + "\n"), 3);
  EXPECT_EQ(line_of_refusal(min_cost, min_head + "a 2 3 0 1 -" + past + "\n"), 3);
  EXPECT_EQ(line_of_refusal(min_cost, min_head + "a 2 3 0 1 -9223372036854775808\n"), 3);
  EXPECT_EQ(line_of_refusal(min_cost, min_head + "a 2 3 0 " + at + " -" + at + "\n"), 0);
  EXPECT_EQ(line_of_refusal(edge_list, "3 2\n0 1\n1 2 9223372036854775808\n"), 3);
  EXPECT_EQ(line_of_refusal(edge_list, "3 2\n0 1\n1 2 1048577\n"), 3);
  EXPECT_EQ(line_of_refusal(edge_list, "3 2\n0 1\n1 2 9.5e-7\n"), 3);
  EXPECT_EQ(line_of_refusal(edge_list, "3 2\n0 1 1048576\n1 2 9.5367431640625e-07\n"), 0);
}

TEST(FlowWriter, EmitsValueAndNonzeroArcs) {
  graph::Digraph g(3);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 2, 2);
  std::ostringstream out;
  write_dimacs_flow(out, g, {2, 2}, 2);
  const std::string s = out.str();
  EXPECT_NE(s.find("s 2"), std::string::npos);
  EXPECT_NE(s.find("f 1 2 2"), std::string::npos);
}

}  // namespace
}  // namespace lapclique::io
