#include "cliquesim/congest.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <limits>
#include <set>
#include <stdexcept>

namespace lapclique::clique {

CongestNetwork::CongestNetwork(const graph::Graph& topology)
    : n_(topology.num_vertices()),
      adj_(static_cast<std::size_t>(n_)),
      inboxes_(static_cast<std::size_t>(n_)) {
  for (int v = 0; v < n_; ++v) {
    for (const graph::Incidence& inc : topology.incident(v)) {
      adj_[static_cast<std::size_t>(v)].push_back(inc.other);
    }
    std::sort(adj_[static_cast<std::size_t>(v)].begin(),
              adj_[static_cast<std::size_t>(v)].end());
    adj_[static_cast<std::size_t>(v)].erase(
        std::unique(adj_[static_cast<std::size_t>(v)].begin(),
                    adj_[static_cast<std::size_t>(v)].end()),
        adj_[static_cast<std::size_t>(v)].end());
  }
}

bool CongestNetwork::adjacent(int u, int v) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) return false;
  const auto& a = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(a.begin(), a.end(), v);
}

void CongestNetwork::step(const std::vector<Msg>& msgs) {
  std::set<std::pair<int, int>> used;
  for (const Msg& m : msgs) {
    if (!adjacent(m.src, m.dst)) {
      throw std::invalid_argument(
          "CongestNetwork: message not along a topology edge");
    }
    if (!used.insert({m.src, m.dst}).second) {
      throw std::invalid_argument(
          "CongestNetwork: two words on one edge direction in one round");
    }
  }
  for (const Msg& m : msgs) {
    inboxes_[static_cast<std::size_t>(m.dst)].push_back(m);
  }
  ++rounds_;
  if (tracer_ != nullptr) {
    std::vector<std::int64_t> sent(static_cast<std::size_t>(n_), 0);
    std::vector<std::int64_t> recv(static_cast<std::size_t>(n_), 0);
    for (const Msg& m : msgs) {
      ++sent[static_cast<std::size_t>(m.src)];
      ++recv[static_cast<std::size_t>(m.dst)];
    }
    tracer_->record_op("congest_step", 1,
                       static_cast<std::int64_t>(msgs.size()), sent, recv);
  }
}

std::vector<Msg> CongestNetwork::drain_inbox(int node) {
  if (node < 0 || node >= n_) throw std::out_of_range("CongestNetwork: bad node");
  std::vector<Msg> out;
  out.swap(inboxes_[static_cast<std::size_t>(node)]);
  return out;
}

CongestBfsResult congest_bfs(const graph::Graph& g, int source) {
  CongestNetwork net(g);
  const int n = g.num_vertices();
  CongestBfsResult out;
  out.dist.assign(static_cast<std::size_t>(n), -1);
  out.dist[static_cast<std::size_t>(source)] = 0;

  std::vector<int> frontier{source};
  while (!frontier.empty()) {
    // Every frontier node announces its distance to all neighbors.
    std::vector<Msg> batch;
    for (int v : frontier) {
      for (const graph::Incidence& inc : g.incident(v)) {
        batch.push_back(Msg{v, inc.other, 0,
                            Word(static_cast<std::int64_t>(
                                out.dist[static_cast<std::size_t>(v)]))});
      }
    }
    // Parallel edges would double-book an edge direction; dedupe.
    std::sort(batch.begin(), batch.end(), [](const Msg& a, const Msg& b) {
      return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
    });
    batch.erase(std::unique(batch.begin(), batch.end(),
                            [](const Msg& a, const Msg& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                batch.end());
    net.step(batch);
    std::vector<int> next;
    for (int v = 0; v < n; ++v) {
      for (const Msg& m : net.drain_inbox(v)) {
        if (out.dist[static_cast<std::size_t>(v)] == -1) {
          out.dist[static_cast<std::size_t>(v)] =
              static_cast<int>(m.payload.as_int()) + 1;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  out.rounds = net.rounds();
  return out;
}

CongestSsspResult congest_bellman_ford(const graph::Graph& g, int source) {
  CongestNetwork net(g);
  const int n = g.num_vertices();
  CongestSsspResult out;
  out.dist.assign(static_cast<std::size_t>(n),
                  std::numeric_limits<double>::infinity());
  out.dist[static_cast<std::size_t>(source)] = 0;

  bool changed = true;
  int guard = 0;
  while (changed && guard++ <= n + 1) {
    changed = false;
    // Every node with a finite distance announces it to all neighbors.
    std::vector<Msg> batch;
    std::set<std::pair<int, int>> used;
    for (int v = 0; v < n; ++v) {
      if (!std::isfinite(out.dist[static_cast<std::size_t>(v)])) continue;
      for (const graph::Incidence& inc : g.incident(v)) {
        if (!used.insert({v, inc.other}).second) continue;  // parallel edges
        batch.push_back(Msg{v, inc.other, inc.edge,
                            Word(out.dist[static_cast<std::size_t>(v)])});
      }
    }
    net.step(batch);
    for (int v = 0; v < n; ++v) {
      for (const Msg& m : net.drain_inbox(v)) {
        // Use the lightest parallel edge between the pair.
        double best_w = std::numeric_limits<double>::infinity();
        for (const graph::Incidence& inc : g.incident(v)) {
          if (inc.other == m.src) {
            best_w = std::min(best_w, g.edge(inc.edge).w);
          }
        }
        const double nd = m.payload.as_double() + best_w;
        if (nd < out.dist[static_cast<std::size_t>(v)] - 1e-12) {
          out.dist[static_cast<std::size_t>(v)] = nd;
          changed = true;
        }
      }
    }
  }
  out.rounds = net.rounds();
  return out;
}

}  // namespace lapclique::clique
