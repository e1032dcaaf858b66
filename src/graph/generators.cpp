#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "graph/rng.hpp"

namespace lapclique::graph {

Graph path(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle(int n) {
  if (n < 3) throw std::invalid_argument("cycle: n >= 3 required");
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

Graph complete(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  return g;
}

Graph star(int n) {
  if (n < 2) throw std::invalid_argument("star: n >= 2 required");
  Graph g(n);
  for (int i = 1; i < n; ++i) g.add_edge(0, i);
  return g;
}

Graph grid(int rows, int cols) {
  Graph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph circulant(int n, std::span<const int> offsets) {
  Graph g(n);
  for (int off : offsets) {
    if (off <= 0 || off >= n) throw std::invalid_argument("circulant: bad offset");
    // off == n - off would duplicate edges; emit each undirected edge once.
    for (int i = 0; i < n; ++i) {
      const int j = (i + off) % n;
      if (2 * off == n && i >= j) continue;
      g.add_edge(i, j);
    }
  }
  return g;
}

Graph barbell(int half) {
  if (half < 2) throw std::invalid_argument("barbell: half >= 2 required");
  Graph g(2 * half);
  for (int i = 0; i < half; ++i) {
    for (int j = i + 1; j < half; ++j) {
      g.add_edge(i, j);
      g.add_edge(half + i, half + j);
    }
  }
  g.add_edge(0, half);
  return g;
}

Graph lollipop(int clique_size, int path_len) {
  if (clique_size < 2) {
    throw std::invalid_argument("lollipop: clique_size >= 2 required");
  }
  if (path_len < 1) throw std::invalid_argument("lollipop: path_len >= 1 required");
  Graph g(clique_size + path_len);
  for (int i = 0; i < clique_size; ++i) {
    for (int j = i + 1; j < clique_size; ++j) g.add_edge(i, j);
  }
  // The tail hangs off vertex 0 of the clique.
  g.add_edge(0, clique_size);
  for (int i = 1; i < path_len; ++i) {
    g.add_edge(clique_size + i - 1, clique_size + i);
  }
  return g;
}

Graph barabasi_albert(int n, int m_per_node, std::uint64_t seed) {
  if (m_per_node < 1) {
    throw std::invalid_argument("barabasi_albert: m_per_node >= 1 required");
  }
  if (n < m_per_node + 2) {
    throw std::invalid_argument("barabasi_albert: n >= m_per_node + 2 required");
  }
  SplitMix64 rng(seed);
  Graph g(n);
  // Complete seed graph on m_per_node + 1 vertices.
  const int seed_n = m_per_node + 1;
  // `chosen` holds one endpoint id per half-edge; sampling an index uniformly
  // from it is sampling a vertex proportionally to its current degree.
  std::vector<int> stubs;
  for (int i = 0; i < seed_n; ++i) {
    for (int j = i + 1; j < seed_n; ++j) {
      g.add_edge(i, j);
      stubs.push_back(i);
      stubs.push_back(j);
    }
  }
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  for (int v = seed_n; v < n; ++v) {
    std::vector<int> targets;
    targets.reserve(static_cast<std::size_t>(m_per_node));
    while (static_cast<int>(targets.size()) < m_per_node) {
      const int u = stubs[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(stubs.size())))];
      if (taken[static_cast<std::size_t>(u)] != 0) continue;  // distinct targets
      taken[static_cast<std::size_t>(u)] = 1;
      targets.push_back(u);
    }
    for (int u : targets) {
      taken[static_cast<std::size_t>(u)] = 0;
      g.add_edge(u, v);
      stubs.push_back(u);
      stubs.push_back(v);
    }
  }
  return g;
}

Graph random_gnm(int n, int m, std::uint64_t seed) {
  Graph g(n);
  if (n < 2) return g;
  SplitMix64 rng(seed);
  std::set<std::pair<int, int>> used;
  const std::int64_t max_edges =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  const int target = static_cast<int>(std::min<std::int64_t>(m, max_edges));
  while (static_cast<int>(used.size()) < target) {
    int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (used.insert({u, v}).second) g.add_edge(u, v);
  }
  return g;
}

Graph random_connected_gnm(int n, int m, std::uint64_t seed) {
  Graph g(n);
  if (n < 2) return g;
  SplitMix64 rng(seed);
  std::set<std::pair<int, int>> used;
  // Random spanning tree: attach each vertex to a random earlier one.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  for (int i = 1; i < n; ++i) {
    int u = order[static_cast<std::size_t>(i)];
    int v = order[rng.next_below(static_cast<std::uint64_t>(i))];
    if (u > v) std::swap(u, v);
    used.insert({u, v});
    g.add_edge(u, v);
  }
  const std::int64_t max_edges = static_cast<std::int64_t>(n) * (n - 1) / 2;
  const int target = static_cast<int>(std::min<std::int64_t>(m, max_edges));
  while (static_cast<int>(used.size()) < target) {
    int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (used.insert({u, v}).second) g.add_edge(u, v);
  }
  return g;
}

Graph random_regular(int n, int d, std::uint64_t seed) {
  if (n * d % 2 != 0) throw std::invalid_argument("random_regular: n*d must be even");
  SplitMix64 rng(seed);
  Graph g(n);
  std::vector<int> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < d; ++k) stubs.push_back(v);
  }
  for (std::size_t i = stubs.size(); i-- > 1;) {
    std::swap(stubs[i], stubs[rng.next_below(i + 1)]);
  }
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (stubs[i] == stubs[i + 1]) {
      // Avoid the self-loop by pairing with the next different stub.
      for (std::size_t j = i + 2; j < stubs.size(); ++j) {
        if (stubs[j] != stubs[i]) {
          std::swap(stubs[i + 1], stubs[j]);
          break;
        }
      }
    }
    if (stubs[i] != stubs[i + 1]) g.add_edge(stubs[i], stubs[i + 1]);
  }
  return g;
}

Graph with_random_weights(const Graph& g, std::int64_t max_weight, std::uint64_t seed) {
  if (max_weight < 1) throw std::invalid_argument("with_random_weights: max_weight >= 1");
  SplitMix64 rng(seed);
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges()) {
    const auto w = static_cast<double>(
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_weight))));
    out.add_edge(e.u, e.v, w);
  }
  return out;
}

Graph planted_partition(int blocks, int block_size, double p_in, double p_out,
                        std::uint64_t seed) {
  if (blocks < 1 || block_size < 1) {
    throw std::invalid_argument("planted_partition: bad shape");
  }
  if (!(p_in >= 0 && p_in <= 1 && p_out >= 0 && p_out <= 1)) {
    throw std::invalid_argument("planted_partition: probabilities in [0,1]");
  }
  SplitMix64 rng(seed);
  const int n = blocks * block_size;
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const bool same = u / block_size == v / block_size;
      if (rng.next_double() < (same ? p_in : p_out)) g.add_edge(u, v);
    }
  }
  return g;
}

Graph union_of_random_closed_walks(int n, int walks, int walk_len, std::uint64_t seed) {
  if (n < 3) throw std::invalid_argument("closed walks: n >= 3 required");
  if (walk_len < 3) throw std::invalid_argument("closed walks: walk_len >= 3");
  SplitMix64 rng(seed);
  Graph g(n);
  for (int w = 0; w < walks; ++w) {
    const int start = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int cur = start;
    std::vector<int> walk{start};
    for (int i = 1; i < walk_len; ++i) {
      int nxt = cur;
      while (nxt == cur || (i == walk_len - 1 && nxt == start)) {
        nxt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      }
      walk.push_back(nxt);
      cur = nxt;
    }
    walk.push_back(start);  // close the walk
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      g.add_edge(walk[i], walk[i + 1]);
    }
  }
  return g;
}

Graph doubled(const Graph& g) {
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges()) {
    out.add_edge(e.u, e.v, e.w);
    out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

Digraph random_flow_network(int n, int m, std::int64_t max_cap, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("random_flow_network: n >= 2");
  // Every ordered pair but self-loops, arcs into s and arcs out of t.
  const std::int64_t pairs = std::int64_t{n} * n - 3 * std::int64_t{n} + 3;
  if (m > pairs) {
    throw std::invalid_argument(
        "random_flow_network: m must be at most n^2 - 3n + 3 = " + std::to_string(pairs));
  }
  SplitMix64 rng(seed);
  Digraph g(n);
  std::set<std::pair<int, int>> used;
  // Random s-t chain so max flow is positive.
  std::vector<int> mid;
  for (int v = 1; v + 1 < n; ++v) mid.push_back(v);
  for (std::size_t i = mid.size(); i-- > 1;) {
    std::swap(mid[i], mid[rng.next_below(i + 1)]);
  }
  const int chain_len = std::min<int>(static_cast<int>(mid.size()), std::max(1, n / 3));
  int prev = 0;
  for (int i = 0; i < chain_len; ++i) {
    const int v = mid[static_cast<std::size_t>(i)];
    used.insert({prev, v});
    g.add_arc(prev, v, 1 + static_cast<std::int64_t>(rng.next_below(
                               static_cast<std::uint64_t>(max_cap))));
    prev = v;
  }
  used.insert({prev, n - 1});
  g.add_arc(prev, n - 1,
            1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_cap))));
  while (g.num_arcs() < m) {
    int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v || v == 0 || u == n - 1) continue;  // no arcs into s / out of t
    if (!used.insert({u, v}).second) continue;
    g.add_arc(u, v, 1 + static_cast<std::int64_t>(rng.next_below(
                            static_cast<std::uint64_t>(max_cap))));
  }
  return g;
}

Digraph layered_flow_network(int layers, int width, std::int64_t max_cap,
                             std::uint64_t seed) {
  if (layers < 1 || width < 1) throw std::invalid_argument("layered: bad shape");
  SplitMix64 rng(seed);
  const int n = 2 + layers * width;
  Digraph g(n);
  auto id = [width](int layer, int k) { return 1 + layer * width + k; };
  for (int k = 0; k < width; ++k) {
    g.add_arc(0, id(0, k),
              1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_cap))));
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (a == b || rng.next_below(2) == 0) {
          g.add_arc(id(l, a), id(l + 1, b),
                    1 + static_cast<std::int64_t>(
                            rng.next_below(static_cast<std::uint64_t>(max_cap))));
        }
      }
    }
  }
  for (int k = 0; k < width; ++k) {
    g.add_arc(id(layers - 1, k), n - 1,
              1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_cap))));
  }
  return g;
}

Digraph random_unit_cost_digraph(int n, int m, std::int64_t max_cost,
                                 std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("random_unit_cost_digraph: n >= 2");
  const std::int64_t pairs = std::int64_t{n} * (n - 1);
  if (m > pairs) {
    throw std::invalid_argument(
        "random_unit_cost_digraph: m must be at most n(n - 1) = " + std::to_string(pairs));
  }
  SplitMix64 rng(seed);
  Digraph g(n);
  std::set<std::pair<int, int>> used;
  while (g.num_arcs() < m) {
    int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (!used.insert({u, v}).second) continue;
    g.add_arc(u, v, 1,
              1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_cost))));
  }
  return g;
}

std::vector<std::int64_t> feasible_unit_demands(const Digraph& g, int pairs,
                                                std::uint64_t seed) {
  SplitMix64 rng(seed);
  const int n = g.num_vertices();
  std::vector<std::int64_t> sigma(static_cast<std::size_t>(n), 0);
  std::vector<char> arc_used(static_cast<std::size_t>(g.num_arcs()), 0);
  int made = 0;
  for (int attempt = 0; attempt < pairs * 20 && made < pairs; ++attempt) {
    // Random walk along unused arcs; the walk's endpoints become a demand pair.
    int start = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int cur = start;
    std::vector<int> walk_arcs;
    for (int step = 0; step < n; ++step) {
      const auto outs = g.out_arcs(cur);
      std::vector<int> candidates;
      for (int a : outs) {
        if (arc_used[static_cast<std::size_t>(a)] == 0) candidates.push_back(a);
      }
      if (candidates.empty()) break;
      const int a = candidates[rng.next_below(candidates.size())];
      walk_arcs.push_back(a);
      cur = g.arc(a).to;
      if (rng.next_below(3) == 0) break;  // vary path lengths
    }
    if (walk_arcs.empty() || cur == start) continue;
    for (int a : walk_arcs) arc_used[static_cast<std::size_t>(a)] = 1;
    // Demand convention (1'): excess(v) = inflow - outflow = sigma(v).
    sigma[static_cast<std::size_t>(start)] -= 1;
    sigma[static_cast<std::size_t>(cur)] += 1;
    ++made;
  }
  return sigma;
}

}  // namespace lapclique::graph
