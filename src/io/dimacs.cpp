#include "io/dimacs.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace lapclique::io {

namespace {

/// Reads lines, strips comments ('c ...'), yields non-empty ones.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(&in) {}

  bool next(std::string& line) {
    while (std::getline(*in_, line)) {
      ++line_no_;
      if (line.empty() || line[0] == 'c') continue;
      return true;
    }
    return false;
  }

  [[nodiscard]] int line_no() const { return line_no_; }

 private:
  std::istream* in_;
  int line_no_ = 0;
};

void check_plausible(int line_no, std::int64_t n, std::int64_t m) {
  if (n > kMaxVertices || m > kMaxArcs) {
    throw ParseError(line_no, "implausibly large problem size in header");
  }
}

}  // namespace

MaxFlowProblem read_dimacs_max_flow(std::istream& in) {
  LineReader reader(in);
  std::string line;
  MaxFlowProblem p;
  int n = -1;
  std::int64_t m = -1;
  std::int64_t arcs_seen = 0;
  while (reader.next(line)) {
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    switch (kind) {
      case 'p': {
        if (n >= 0) {
          throw ParseError(reader.line_no(), "duplicate problem line");
        }
        std::string prob;
        ss >> prob >> n >> m;
        if (!ss || prob != "max" || n <= 0 || m < 0) {
          throw ParseError(reader.line_no(), "bad problem line (want 'p max N M')");
        }
        check_plausible(reader.line_no(), n, m);
        p.g = graph::Digraph(n);
        break;
      }
      case 'n': {
        if (n < 0) {
          throw ParseError(reader.line_no(), "node descriptor before problem line");
        }
        int id = 0;
        char role = 0;
        ss >> id >> role;
        if (!ss || id < 1 || id > n) {
          throw ParseError(reader.line_no(), "bad node descriptor");
        }
        if (role == 's') {
          p.source = id - 1;
        } else if (role == 't') {
          p.sink = id - 1;
        } else {
          throw ParseError(reader.line_no(), "node role must be s or t");
        }
        break;
      }
      case 'a': {
        if (n < 0) {
          throw ParseError(reader.line_no(), "arc descriptor before problem line");
        }
        int u = 0;
        int v = 0;
        std::int64_t cap = 0;
        ss >> u >> v >> cap;
        if (!ss || u < 1 || v < 1 || u > n || v > n || cap < 0) {
          throw ParseError(reader.line_no(), "bad arc descriptor");
        }
        if (u != v) p.g.add_arc(u - 1, v - 1, cap);
        ++arcs_seen;
        break;
      }
      default:
        throw ParseError(reader.line_no(), "unknown line kind");
    }
  }
  if (n < 0) throw ParseError(reader.line_no(), "missing problem line");
  if (p.source < 0 || p.sink < 0) {
    throw ParseError(reader.line_no(), "missing source or sink descriptor");
  }
  if (arcs_seen != m) {
    throw ParseError(reader.line_no(), "arc count mismatch with problem line");
  }
  return p;
}

void write_dimacs_max_flow(std::ostream& out, const MaxFlowProblem& p) {
  out << "c lapclique max-flow instance\n";
  out << "p max " << p.g.num_vertices() << ' ' << p.g.num_arcs() << '\n';
  out << "n " << p.source + 1 << " s\n";
  out << "n " << p.sink + 1 << " t\n";
  for (const graph::Arc& a : p.g.arcs()) {
    out << "a " << a.from + 1 << ' ' << a.to + 1 << ' ' << a.cap << '\n';
  }
}

MinCostProblem read_dimacs_min_cost(std::istream& in) {
  LineReader reader(in);
  std::string line;
  MinCostProblem p;
  int n = -1;
  std::int64_t m = -1;
  std::int64_t arcs_seen = 0;
  while (reader.next(line)) {
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    switch (kind) {
      case 'p': {
        if (n >= 0) {
          throw ParseError(reader.line_no(), "duplicate problem line");
        }
        std::string prob;
        ss >> prob >> n >> m;
        if (!ss || prob != "min" || n <= 0 || m < 0) {
          throw ParseError(reader.line_no(), "bad problem line (want 'p min N M')");
        }
        check_plausible(reader.line_no(), n, m);
        p.g = graph::Digraph(n);
        p.sigma.assign(static_cast<std::size_t>(n), 0);
        break;
      }
      case 'n': {
        if (n < 0) {
          throw ParseError(reader.line_no(), "node descriptor before problem line");
        }
        int id = 0;
        std::int64_t supply = 0;
        ss >> id >> supply;
        if (!ss || id < 1 || id > n) {
          throw ParseError(reader.line_no(), "bad node descriptor");
        }
        if (supply == std::numeric_limits<std::int64_t>::min()) {
          throw ParseError(reader.line_no(), "node supply out of range");
        }
        // DIMACS supply (positive = produces) -> sigma (excess) = -supply.
        p.sigma[static_cast<std::size_t>(id - 1)] = -supply;
        break;
      }
      case 'a': {
        if (n < 0) {
          throw ParseError(reader.line_no(), "arc descriptor before problem line");
        }
        int u = 0;
        int v = 0;
        std::int64_t low = 0;
        std::int64_t cap = 0;
        std::int64_t cost = 0;
        ss >> u >> v >> low >> cap >> cost;
        if (!ss || u < 1 || v < 1 || u > n || v > n || cap < 0) {
          throw ParseError(reader.line_no(), "bad arc descriptor");
        }
        if (low != 0) {
          throw ParseError(reader.line_no(), "lower bounds not supported");
        }
        if (u != v) p.g.add_arc(u - 1, v - 1, cap, cost);
        ++arcs_seen;
        break;
      }
      default:
        throw ParseError(reader.line_no(), "unknown line kind");
    }
  }
  if (n < 0) throw ParseError(reader.line_no(), "missing problem line");
  if (arcs_seen != m) {
    throw ParseError(reader.line_no(), "arc count mismatch with problem line");
  }
  return p;
}

void write_dimacs_min_cost(std::ostream& out, const MinCostProblem& p) {
  out << "c lapclique min-cost-flow instance\n";
  out << "p min " << p.g.num_vertices() << ' ' << p.g.num_arcs() << '\n';
  for (int v = 0; v < p.g.num_vertices(); ++v) {
    const std::int64_t sigma = p.sigma[static_cast<std::size_t>(v)];
    if (sigma != 0) out << "n " << v + 1 << ' ' << -sigma << '\n';
  }
  for (const graph::Arc& a : p.g.arcs()) {
    out << "a " << a.from + 1 << ' ' << a.to + 1 << " 0 " << a.cap << ' '
        << a.cost << '\n';
  }
}

graph::Graph read_edge_list(std::istream& in) {
  LineReader reader(in);
  std::string line;
  if (!reader.next(line)) throw ParseError(0, "empty edge-list input");
  std::istringstream head(line);
  int n = 0;
  std::int64_t m = 0;
  head >> n >> m;
  if (!head || n < 0 || m < 0) {
    throw ParseError(reader.line_no(), "bad header (want 'N M')");
  }
  check_plausible(reader.line_no(), n, m);
  graph::Graph g(n);
  for (std::int64_t i = 0; i < m; ++i) {
    if (!reader.next(line)) {
      throw ParseError(reader.line_no(), "fewer edges than the header promised");
    }
    std::istringstream ss(line);
    int u = 0;
    int v = 0;
    double w = 1.0;
    ss >> u >> v;
    if (!ss || u < 0 || v < 0 || u >= n || v >= n) {
      throw ParseError(reader.line_no(), "bad edge line");
    }
    if (u == v) throw ParseError(reader.line_no(), "self-loops not allowed");
    if (!(ss >> w)) {
      ss.clear();
      w = 1.0;
    }
    std::string rest;
    if (ss >> rest) {
      throw ParseError(reader.line_no(), "trailing junk on edge line");
    }
    if (!(w > 0) || !std::isfinite(w)) {
      throw ParseError(reader.line_no(), "weight must be positive and finite");
    }
    g.add_edge(u, v, w);
  }
  if (reader.next(line)) {
    throw ParseError(reader.line_no(), "more edges than the header promised");
  }
  return g;
}

void write_edge_list(std::ostream& out, const graph::Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const graph::Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

void write_dimacs_flow(std::ostream& out, const graph::Digraph& g,
                       const std::vector<std::int64_t>& flow, std::int64_t value) {
  out << "c lapclique solution\n";
  out << "s " << value << '\n';
  for (int a = 0; a < g.num_arcs(); ++a) {
    if (flow[static_cast<std::size_t>(a)] != 0) {
      out << "f " << g.arc(a).from + 1 << ' ' << g.arc(a).to + 1 << ' '
          << flow[static_cast<std::size_t>(a)] << '\n';
    }
  }
}

}  // namespace lapclique::io
