// DIMACS-format readers/writers, so the library interoperates with the
// standard max-flow / min-cost-flow benchmark corpora:
//
//   max flow  ("p max N M"):   n <id> s|t        a <u> <v> <cap>
//   min cost  ("p min N M"):   n <id> <supply>   a <u> <v> <low> <cap> <cost>
//
// plus a simple undirected weighted edge-list format for Laplacian inputs:
//   first line "N M", then M lines "u v w" (0-based).
//
// DIMACS vertex ids are 1-based in the files and converted to 0-based here.
// Supplies use the DIMACS convention (positive = source); they are converted
// to this library's sigma convention (excess(v) = inflow - outflow =
// sigma(v), so sigma = -supply).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace lapclique::io {

struct MaxFlowProblem {
  graph::Digraph g;
  int source = -1;
  int sink = -1;
};

struct MinCostProblem {
  graph::Digraph g;
  std::vector<std::int64_t> sigma;  ///< library convention (see header)
};

/// Parse errors carry the offending location: a line number for the text
/// formats above, or a (source, byte offset) pair for binary formats (the
/// checkpoint files in src/ckpt derive from this so every malformed-input
/// diagnostic in the repo reads the same way).
class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  /// Binary-format variant: `where` names the source (usually a file path)
  /// and `offset` is the byte position the decoder had reached.
  ParseError(const std::string& where, long long offset,
             const std::string& what)
      : std::runtime_error(where + " @ byte " + std::to_string(offset) + ": " +
                           what),
        offset_(offset) {}
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] long long offset() const { return offset_; }

 private:
  int line_ = -1;
  long long offset_ = -1;
};

/// Size caps shared by every reader of untrusted graph input (the three
/// readers below, the serve daemon's graph.load) and by the CLI's
/// generators, so the CLI never writes a file it refuses to read.  A header
/// past them is virtually certainly corrupt, and letting it through would
/// turn one flipped byte into a gigabyte allocation.
inline constexpr std::int64_t kMaxVertices = 1'000'000;
inline constexpr std::int64_t kMaxArcs = 50'000'000;

/// Value bounds shared by the same readers (and, for arcs, the generators).
/// An arc's capacity and |cost| are at most kMaxArcValue = 2^37, the largest
/// power of two whose kMaxArcs-fold sum stays below 2^63: the IPMs total
/// capacities and costs in int64 (2U for the max-flow preconditioning
/// edges, the sum of |cost| for the min-cost lift).  An undirected edge
/// weight lies in [kMinEdgeWeight, kMaxEdgeWeight] = [2^-20, 2^20]: weights
/// 2^53 apart on one small graph already collapse a pivot of the dense
/// factor.  A value past a bound is a line-located ParseError, or a serve
/// bad_request.
inline constexpr std::int64_t kMaxArcValue = std::int64_t{1} << 37;
static_assert(kMaxArcs <= std::numeric_limits<std::int64_t>::max() / kMaxArcValue);
inline constexpr double kMinEdgeWeight = 0x1p-20;
inline constexpr double kMaxEdgeWeight = 0x1p20;

MaxFlowProblem read_dimacs_max_flow(std::istream& in);
void write_dimacs_max_flow(std::ostream& out, const MaxFlowProblem& p);

MinCostProblem read_dimacs_min_cost(std::istream& in);
void write_dimacs_min_cost(std::ostream& out, const MinCostProblem& p);

graph::Graph read_edge_list(std::istream& in);
void write_edge_list(std::ostream& out, const graph::Graph& g);

/// "f <u> <v> <flow>" lines for a solved flow (1-based ids, DIMACS style).
void write_dimacs_flow(std::ostream& out, const graph::Digraph& g,
                       const std::vector<std::int64_t>& flow,
                       std::int64_t value);

}  // namespace lapclique::io
