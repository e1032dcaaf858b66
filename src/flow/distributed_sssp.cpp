#include "flow/distributed_sssp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace lapclique::flow {

using graph::Digraph;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::int64_t charge_for(const Digraph& g, clique::Network& net) {
  const auto rounds = static_cast<std::int64_t>(
      std::ceil(std::pow(std::max(2, g.num_vertices()), kCkklExponent)));
  net.charge(rounds);
  return rounds;
}

}  // namespace

SsspResult multi_source_sssp(const Digraph& g, const std::vector<int>& sources,
                             const std::vector<double>& length,
                             const std::vector<char>& arc_usable,
                             clique::Network& net) {
  if (static_cast<int>(length.size()) != g.num_arcs() ||
      static_cast<int>(arc_usable.size()) != g.num_arcs()) {
    throw std::invalid_argument("sssp: per-arc vector size mismatch");
  }
  const int n = g.num_vertices();
  SsspResult out;
  out.dist.assign(static_cast<std::size_t>(n), kInf);
  out.parent_arc.assign(static_cast<std::size_t>(n), -1);
  for (int s : sources) out.dist[static_cast<std::size_t>(s)] = 0;

  // Synchronous (Jacobi-style) sweeps: each sweep reads only the previous
  // sweep's distances, mirroring one broadcast round of distributed
  // Bellman-Ford.
  int iterations = 0;
  bool changed = true;
  while (changed && iterations <= n + 1) {
    changed = false;
    ++iterations;
    const std::vector<double> prev = out.dist;
    for (int a = 0; a < g.num_arcs(); ++a) {
      if (arc_usable[static_cast<std::size_t>(a)] == 0) continue;
      const graph::Arc& arc = g.arc(a);
      const double du = prev[static_cast<std::size_t>(arc.from)];
      if (du == kInf) continue;
      const double nd = du + length[static_cast<std::size_t>(a)];
      if (nd < out.dist[static_cast<std::size_t>(arc.to)] - 1e-12) {
        out.dist[static_cast<std::size_t>(arc.to)] = nd;
        out.parent_arc[static_cast<std::size_t>(arc.to)] = a;
        changed = true;
      }
    }
  }
  if (iterations > n + 1) {
    throw std::runtime_error("sssp: negative cycle reachable from source set");
  }
  out.rounds_charged = charge_for(g, net);
  return out;
}

std::optional<std::vector<std::pair<int, bool>>> residual_augmenting_path(
    const Digraph& g, const std::vector<std::int64_t>& flow, int s, int t,
    clique::Network& net) {
  // BFS over the residual network: forward arcs with slack, backward arcs
  // with positive flow.
  const int n = g.num_vertices();
  std::vector<int> parent_arc(static_cast<std::size_t>(n), -1);
  std::vector<char> parent_fwd(static_cast<std::size_t>(n), 0);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<int> q;
  seen[static_cast<std::size_t>(s)] = 1;
  q.push(s);
  while (!q.empty() && seen[static_cast<std::size_t>(t)] == 0) {
    const int layer = static_cast<int>(q.size());
    for (int i = 0; i < layer; ++i) {
      const int v = q.front();
      q.pop();
      for (int a : g.out_arcs(v)) {
        const int to = g.arc(a).to;
        if (seen[static_cast<std::size_t>(to)] == 0 &&
            flow[static_cast<std::size_t>(a)] < g.arc(a).cap) {
          seen[static_cast<std::size_t>(to)] = 1;
          parent_arc[static_cast<std::size_t>(to)] = a;
          parent_fwd[static_cast<std::size_t>(to)] = 1;
          q.push(to);
        }
      }
      for (int a : g.in_arcs(v)) {
        const int from = g.arc(a).from;
        if (seen[static_cast<std::size_t>(from)] == 0 &&
            flow[static_cast<std::size_t>(a)] > 0) {
          seen[static_cast<std::size_t>(from)] = 1;
          parent_arc[static_cast<std::size_t>(from)] = a;
          parent_fwd[static_cast<std::size_t>(from)] = 0;
          q.push(from);
        }
      }
    }
  }
  charge_for(g, net);
  if (seen[static_cast<std::size_t>(t)] == 0) return std::nullopt;

  std::vector<std::pair<int, bool>> path;
  int v = t;
  while (v != s) {
    const int a = parent_arc[static_cast<std::size_t>(v)];
    const bool fwd = parent_fwd[static_cast<std::size_t>(v)] != 0;
    path.emplace_back(a, fwd);
    v = fwd ? g.arc(a).from : g.arc(a).to;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lapclique::flow
