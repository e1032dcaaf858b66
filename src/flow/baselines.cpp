#include "flow/baselines.hpp"

#include <algorithm>
#include <limits>

namespace lapclique::flow {

using graph::Digraph;

BaselineResult trivial_max_flow(const Digraph& g, int s, int t,
                                clique::Network& net) {
  net.set_phase("baseline/trivial");
  const std::int64_t before = net.rounds();
  // Every node must learn every arc: 3 words per arc, every node receives
  // them all.  With clique gossip that is ceil(3m/n)+1 rounds.
  net.charge_gossip(3 * static_cast<std::int64_t>(g.num_arcs()));

  const MaxFlowResult mf = dinic_max_flow(g, s, t);
  BaselineResult out;
  out.value = mf.value;
  out.flow = mf.flow;
  out.rounds = net.rounds() - before;
  return out;
}

BaselineResult ford_fulkerson_max_flow(const Digraph& g, int s, int t,
                                       clique::Network& net) {
  net.set_phase("baseline/ford_fulkerson");
  const std::int64_t before = net.rounds();
  BaselineResult out;
  out.flow.assign(static_cast<std::size_t>(g.num_arcs()), 0);
  while (true) {
    auto path = residual_augmenting_path(g, out.flow, s, t, net);
    if (!path.has_value()) break;
    ++out.iterations;
    std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
    for (const auto& [a, fwd] : *path) {
      const std::int64_t res = fwd ? g.arc(a).cap - out.flow[static_cast<std::size_t>(a)]
                                   : out.flow[static_cast<std::size_t>(a)];
      bottleneck = std::min(bottleneck, res);
    }
    for (const auto& [a, fwd] : *path) {
      out.flow[static_cast<std::size_t>(a)] += fwd ? bottleneck : -bottleneck;
    }
    out.value += bottleneck;
    net.charge(1);  // announcing the augmentation along the path
  }
  out.rounds = net.rounds() - before;
  return out;
}

}  // namespace lapclique::flow
