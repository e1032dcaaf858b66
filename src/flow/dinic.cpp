#include "flow/dinic.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

namespace lapclique::flow {

using graph::Digraph;

namespace {

/// Standard residual-network Dinic over the given digraph, from the zero
/// flow.
class DinicSolver {
 public:
  explicit DinicSolver(const Digraph& g)
      : g_(&g), flow_(static_cast<std::size_t>(g.num_arcs()), 0) {
    const int n = g.num_vertices();
    level_.assign(static_cast<std::size_t>(n), -1);
    it_.assign(static_cast<std::size_t>(n), 0);
  }

  void run(int s, int t) {
    while (bfs(s, t)) {
      std::fill(it_.begin(), it_.end(), 0);
      while (dfs(s, t, std::numeric_limits<std::int64_t>::max()) > 0) {}
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& flow() const { return flow_; }

 private:
  [[nodiscard]] std::int64_t residual(int arc, bool forward) const {
    const auto a = static_cast<std::size_t>(arc);
    return forward ? g_->arc(arc).cap - flow_[a] : flow_[a];
  }

  bool bfs(int s, int t) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<int> q;
    level_[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      auto relax = [this, &q, v](int to, std::int64_t res) {
        if (res > 0 && level_[static_cast<std::size_t>(to)] == -1) {
          level_[static_cast<std::size_t>(to)] = level_[static_cast<std::size_t>(v)] + 1;
          q.push(to);
        }
      };
      for (int a : g_->out_arcs(v)) relax(g_->arc(a).to, residual(a, true));
      for (int a : g_->in_arcs(v)) relax(g_->arc(a).from, residual(a, false));
    }
    return level_[static_cast<std::size_t>(t)] != -1;
  }

  std::int64_t dfs(int v, int t, std::int64_t limit) {
    if (v == t) return limit;
    // Iterate outgoing residual arcs: forward arcs out of v, then backward
    // residual of arcs into v.
    const auto outs = g_->out_arcs(v);
    const auto ins = g_->in_arcs(v);
    const int total = static_cast<int>(outs.size() + ins.size());
    for (int& i = it_[static_cast<std::size_t>(v)]; i < total; ++i) {
      const bool forward = i < static_cast<int>(outs.size());
      const int a = forward ? outs[static_cast<std::size_t>(i)]
                            : ins[static_cast<std::size_t>(i - static_cast<int>(outs.size()))];
      const int to = forward ? g_->arc(a).to : g_->arc(a).from;
      const std::int64_t res = residual(a, forward);
      if (res <= 0 || level_[static_cast<std::size_t>(to)] !=
                          level_[static_cast<std::size_t>(v)] + 1) {
        continue;
      }
      const std::int64_t pushed = dfs(to, t, std::min(limit, res));
      if (pushed > 0) {
        flow_[static_cast<std::size_t>(a)] += forward ? pushed : -pushed;
        return pushed;
      }
    }
    return 0;
  }

  const Digraph* g_;
  std::vector<std::int64_t> flow_;
  std::vector<int> level_;
  std::vector<int> it_;
};

}  // namespace

MaxFlowResult dinic_max_flow(const Digraph& g, int s, int t) {
  if (s == t) throw std::invalid_argument("dinic: s == t");
  DinicSolver solver(g);
  solver.run(s, t);
  MaxFlowResult out;
  out.flow = solver.flow();
  for (int a : g.out_arcs(s)) out.value += out.flow[static_cast<std::size_t>(a)];
  for (int a : g.in_arcs(s)) out.value -= out.flow[static_cast<std::size_t>(a)];
  return out;
}

}  // namespace lapclique::flow
