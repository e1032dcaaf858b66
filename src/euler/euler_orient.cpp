#include "euler/euler_orient.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "graph/rng.hpp"

namespace lapclique::euler {

using clique::Msg;
using clique::Network;
using clique::Word;
using graph::Graph;

namespace {

/// A (possibly contracted) segment of a cycle between two occurrences.
struct Link {
  int a = -1;  ///< occurrence id
  int b = -1;
  /// Original edges with traversal signs when going a -> b.
  std::vector<std::pair<int, std::int8_t>> path;
  double cost_diff = 0;  ///< (forward cost - backward cost) going a -> b
  std::int8_t forced_sign = 0;  ///< sign of the forced edge going a -> b; 0 = absent
};

struct Occurrence {
  int node = -1;
  int link[2] = {-1, -1};
  bool active = true;
  bool terminal = false;  ///< self-link: this occurrence owns a whole cycle
};

struct Machine {
  const Graph* g;
  Network* net;
  const EulerOrientCosts* costs;
  const EulerOrientOptions* opt;
  int level = 0;

  std::vector<Link> links;
  std::vector<Occurrence> occs;
  std::vector<Link> finished;  ///< terminal self-links (one per cycle)

  // Per-level ring structure (simulation scaffolding).
  std::vector<int> succ;       ///< successor occurrence on the oriented ring
  std::vector<int> pred;
  std::vector<int> succ_link;  ///< link used to reach succ
  std::vector<std::int64_t> color;
  std::vector<int> partner;    ///< matched partner occurrence (-1 = unmatched)
  std::vector<char> marked;

  /// Steps of the contraction pass the reverse replay repeats: each routed
  /// batch counts one, whatever rounds it was charged, as does each counted
  /// single round.
  std::int64_t forward_steps = 0;

  [[nodiscard]] int other_end(const Link& l, int occ) const {
    return l.a == occ ? l.b : l.a;
  }

  void build_initial() {
    const int n = g->num_vertices();
    // Ports: for edge {u,v}, port (e,0) sits at u and port (e,1) at v.
    // Each node pairs its ports internally (the paper's step 1); each pair
    // is one occurrence of the node on some cycle of the implicit
    // decomposition.  port_occ[2*e + side] = occurrence owning that port.
    std::vector<int> port_occ(static_cast<std::size_t>(g->num_edges()) * 2, -1);
    std::vector<std::vector<std::pair<int, int>>> ports(
        static_cast<std::size_t>(n));  // (edge, side) at each node
    for (int e = 0; e < g->num_edges(); ++e) {
      ports[static_cast<std::size_t>(g->edge(e).u)].push_back({e, 0});
      ports[static_cast<std::size_t>(g->edge(e).v)].push_back({e, 1});
    }
    for (int v = 0; v < n; ++v) {
      const auto& pv = ports[static_cast<std::size_t>(v)];
      if (pv.size() % 2 != 0) {
        throw std::invalid_argument(
            "eulerian_orientation: all degrees must be even");
      }
      for (std::size_t i = 0; i + 1 < pv.size(); i += 2) {
        const int oid = static_cast<int>(occs.size());
        Occurrence o;
        o.node = v;
        occs.push_back(o);
        port_occ[static_cast<std::size_t>(2 * pv[i].first + pv[i].second)] = oid;
        port_occ[static_cast<std::size_t>(2 * pv[i + 1].first + pv[i + 1].second)] =
            oid;
      }
    }
    // Links: one per edge.
    links.reserve(static_cast<std::size_t>(g->num_edges()));
    std::vector<int> slot_used(occs.size(), 0);
    for (int e = 0; e < g->num_edges(); ++e) {
      Link l;
      l.a = port_occ[static_cast<std::size_t>(2 * e + 0)];
      l.b = port_occ[static_cast<std::size_t>(2 * e + 1)];
      l.path = {{e, static_cast<std::int8_t>(1)}};
      if (costs != nullptr) {
        l.cost_diff = costs->edge_cost[static_cast<std::size_t>(e)];
        if (e == costs->forced_forward_edge) l.forced_sign = 1;
      }
      const int lid = static_cast<int>(links.size());
      links.push_back(std::move(l));
      for (int end : {links[static_cast<std::size_t>(lid)].a,
                      links[static_cast<std::size_t>(lid)].b}) {
        occs[static_cast<std::size_t>(end)]
            .link[slot_used[static_cast<std::size_t>(end)]++] = lid;
      }
    }
  }

  /// Rebuilds succ/pred tables for all active, non-terminal occurrences and
  /// marks single-occurrence rings terminal.
  void build_rings() {
    const int m = static_cast<int>(occs.size());
    succ.assign(static_cast<std::size_t>(m), -1);
    pred.assign(static_cast<std::size_t>(m), -1);
    succ_link.assign(static_cast<std::size_t>(m), -1);
    std::vector<char> visited(static_cast<std::size_t>(m), 0);
    for (int s = 0; s < m; ++s) {
      if (!occs[static_cast<std::size_t>(s)].active ||
          occs[static_cast<std::size_t>(s)].terminal ||
          visited[static_cast<std::size_t>(s)] != 0) {
        continue;
      }
      if (occs[static_cast<std::size_t>(s)].link[0] ==
          occs[static_cast<std::size_t>(s)].link[1]) {
        occs[static_cast<std::size_t>(s)].terminal = true;
        finished.push_back(
            links[static_cast<std::size_t>(occs[static_cast<std::size_t>(s)].link[0])]);
        continue;
      }
      // Walk the ring starting via slot 0.
      int cur = s;
      int via = occs[static_cast<std::size_t>(s)].link[0];
      while (visited[static_cast<std::size_t>(cur)] == 0) {
        visited[static_cast<std::size_t>(cur)] = 1;
        const Link& l = links[static_cast<std::size_t>(via)];
        const int nxt = other_end(l, cur);
        succ[static_cast<std::size_t>(cur)] = nxt;
        succ_link[static_cast<std::size_t>(cur)] = via;
        pred[static_cast<std::size_t>(nxt)] = cur;
        // Exit nxt via its other link.  (For a length-2 ring the two slots
        // hold different link ids; `via` matches exactly one of them.)
        const Occurrence& no = occs[static_cast<std::size_t>(nxt)];
        via = no.link[0] == via ? no.link[1] : no.link[0];
        cur = nxt;
      }
    }
  }

  /// One routed exchange: every active ring occurrence sends one word to a
  /// neighbor occurrence.  Returns the received word per destination occ.
  /// `to_succ` selects direction.  succ and pred are bijections on each
  /// ring, so no occurrence receives two words and the batch's order is
  /// immaterial.
  std::vector<std::optional<Word>> ring_exchange(
      const std::vector<std::optional<Word>>& payload, bool to_succ) {
    std::vector<Msg> batch;
    for (std::size_t o = 0; o < occs.size(); ++o) {
      if (!payload[o].has_value()) continue;
      const int dst_occ = to_succ ? succ[o] : pred[o];
      if (dst_occ < 0) continue;
      batch.push_back(Msg{occs[o].node, occs[static_cast<std::size_t>(dst_occ)].node,
                          static_cast<std::int64_t>(dst_occ), *payload[o]});
    }
    std::vector<std::optional<Word>> received(occs.size());
    if (batch.empty()) return received;
    net->lenzen_route(batch);
    ++forward_steps;  // one routed super-step
    for (const Msg& msg : batch) {
      received[static_cast<std::size_t>(msg.tag)] = msg.payload;
    }
    return received;
  }

  [[nodiscard]] std::vector<int> ring_members() const {
    std::vector<int> out;
    for (std::size_t o = 0; o < occs.size(); ++o) {
      if (occs[o].active && !occs[o].terminal) out.push_back(static_cast<int>(o));
    }
    return out;
  }

  /// Cole–Vishkin 3-coloring of all rings (message-passing; O(log*) rounds).
  void color_rings(const std::vector<int>& members) {
    color.assign(occs.size(), 0);
    for (int o : members) color[static_cast<std::size_t>(o)] = o;

    auto cv_step = [this, &members]() {
      std::vector<std::optional<Word>> payload(occs.size());
      for (int o : members) {
        payload[static_cast<std::size_t>(o)] = Word(color[static_cast<std::size_t>(o)]);
      }
      const auto from_pred = ring_exchange(payload, /*to_succ=*/true);
      for (int o : members) {
        if (!from_pred[static_cast<std::size_t>(o)].has_value()) continue;
        const std::int64_t cp = from_pred[static_cast<std::size_t>(o)]->as_int();
        const std::int64_t cm = color[static_cast<std::size_t>(o)];
        const std::uint64_t diff =
            static_cast<std::uint64_t>(cp) ^ static_cast<std::uint64_t>(cm);
        const int i = diff == 0 ? 0 : std::countr_zero(diff);
        color[static_cast<std::size_t>(o)] =
            2 * i + ((static_cast<std::uint64_t>(cm) >> i) & 1u);
      }
    };
    // log* reduction: 64-bit ids -> < 6 colors in a constant number of steps.
    std::int64_t maxc = 1;
    for (int o : members) maxc = std::max(maxc, color[static_cast<std::size_t>(o)]);
    while (maxc >= 6) {
      cv_step();
      maxc = 1;
      for (int o : members) maxc = std::max(maxc, color[static_cast<std::size_t>(o)]);
      net->charge(1);  // max over colors, known to all
      ++forward_steps;
    }
    // 6 -> 3: three shift-and-recolor rounds.
    for (std::int64_t cc = 5; cc >= 3; --cc) {
      std::vector<std::optional<Word>> payload(occs.size());
      for (int o : members) {
        payload[static_cast<std::size_t>(o)] = Word(color[static_cast<std::size_t>(o)]);
      }
      const auto from_pred = ring_exchange(payload, true);
      const auto from_succ = ring_exchange(payload, false);
      for (int o : members) {
        if (color[static_cast<std::size_t>(o)] != cc) continue;
        std::int64_t cp = -1, cs = -1;
        if (from_pred[static_cast<std::size_t>(o)].has_value()) {
          cp = from_pred[static_cast<std::size_t>(o)]->as_int();
        }
        if (from_succ[static_cast<std::size_t>(o)].has_value()) {
          cs = from_succ[static_cast<std::size_t>(o)]->as_int();
        }
        for (std::int64_t c = 0; c < 3; ++c) {
          if (c != cp && c != cs) {
            color[static_cast<std::size_t>(o)] = c;
            break;
          }
        }
      }
    }
  }

  /// Maximal matching on every ring from the 3-coloring (3 propose/accept
  /// phases).  Fills partner[].
  void match_rings(const std::vector<int>& members) {
    partner.assign(occs.size(), -1);
    for (std::int64_t phase = 0; phase < 3; ++phase) {
      // Propose to successor.
      std::vector<std::optional<Word>> proposal(occs.size());
      std::vector<char> proposed(occs.size(), 0);
      for (int o : members) {
        if (partner[static_cast<std::size_t>(o)] == -1 &&
            color[static_cast<std::size_t>(o)] == phase) {
          proposal[static_cast<std::size_t>(o)] = Word(static_cast<std::int64_t>(o));
          proposed[static_cast<std::size_t>(o)] = 1;
        }
      }
      const auto incoming = ring_exchange(proposal, true);
      // Accept: an unmatched occurrence that did not propose accepts.
      std::vector<std::optional<Word>> accept(occs.size());
      for (int o : members) {
        if (!incoming[static_cast<std::size_t>(o)].has_value()) continue;
        if (partner[static_cast<std::size_t>(o)] != -1 ||
            proposed[static_cast<std::size_t>(o)] != 0) {
          continue;
        }
        const int from = static_cast<int>(incoming[static_cast<std::size_t>(o)]->as_int());
        partner[static_cast<std::size_t>(o)] = from;
        accept[static_cast<std::size_t>(o)] = Word(static_cast<std::int64_t>(o));
      }
      const auto accepted = ring_exchange(accept, false);
      for (int o : members) {
        if (accepted[static_cast<std::size_t>(o)].has_value() &&
            proposed[static_cast<std::size_t>(o)] != 0) {
          partner[static_cast<std::size_t>(o)] =
              static_cast<int>(accepted[static_cast<std::size_t>(o)]->as_int());
        }
      }
    }
  }

  /// Marks by the deterministic rule: higher-ID endpoint of matched edges.
  void mark_from_matching(const std::vector<int>& members) {
    marked.assign(occs.size(), 0);
    for (int o : members) {
      const int p = partner[static_cast<std::size_t>(o)];
      if (p != -1 && o > p) marked[static_cast<std::size_t>(o)] = 1;
    }
  }

  /// Randomized marking (the paper's remark): each occurrence flips a coin.
  /// Bookkeeping repairs the zero-probability-in-theory pathologies (a ring
  /// entirely marked or entirely unmarked) deterministically.
  void mark_randomized(const std::vector<int>& members) {
    marked.assign(occs.size(), 0);
    for (int o : members) {
      graph::SplitMix64 coin(opt->seed ^
                             (static_cast<std::uint64_t>(level) << 32) ^
                             static_cast<std::uint64_t>(o) * 0x9E3779B97F4A7C15ULL);
      marked[static_cast<std::size_t>(o)] = static_cast<char>(coin.next() & 1u);
    }
    net->charge(1);  // everyone announces its coin to ring neighbors
    // Per ring: ensure at least one marked and at least one unmarked.
    std::vector<char> visited(occs.size(), 0);
    for (int s : members) {
      if (visited[static_cast<std::size_t>(s)] != 0) continue;
      std::vector<int> ring;
      int cur = s;
      while (visited[static_cast<std::size_t>(cur)] == 0) {
        visited[static_cast<std::size_t>(cur)] = 1;
        ring.push_back(cur);
        cur = succ[static_cast<std::size_t>(cur)];
      }
      int count_marked = 0;
      for (int o : ring) count_marked += marked[static_cast<std::size_t>(o)];
      if (count_marked == 0) {
        marked[static_cast<std::size_t>(*std::max_element(ring.begin(), ring.end()))] = 1;
      } else if (count_marked == static_cast<int>(ring.size())) {
        marked[static_cast<std::size_t>(*std::min_element(ring.begin(), ring.end()))] = 0;
      }
    }
  }

  /// Contract every ring to its marked occurrences: marked occs probe along
  /// both directions through unmarked relays (<= 3 under the deterministic
  /// marking, O(log n) w.h.p. under the randomized one); probe batches go
  /// through Lenzen routing hop by hop; paths/costs are concatenated into
  /// new links.
  void contract(const std::vector<int>& members) {

    struct Probe {
      int origin;
      int origin_slot;
      int cur;        ///< occurrence the probe sits at
      int via;        ///< link just traversed to reach cur
      std::vector<std::pair<int, std::int8_t>> path;
      double cost_diff = 0;
      std::int8_t forced_sign = 0;
      bool done = false;
    };

    auto absorb = [](Probe& pr, const Link& l, bool reversed) {
      if (!reversed) {
        pr.path.insert(pr.path.end(), l.path.begin(), l.path.end());
        pr.cost_diff += l.cost_diff;
        if (l.forced_sign != 0) pr.forced_sign = l.forced_sign;
      } else {
        for (auto it = l.path.rbegin(); it != l.path.rend(); ++it) {
          pr.path.emplace_back(it->first, static_cast<std::int8_t>(-it->second));
        }
        pr.cost_diff -= l.cost_diff;
        if (l.forced_sign != 0) pr.forced_sign = static_cast<std::int8_t>(-l.forced_sign);
      }
    };

    std::vector<Probe> probes;
    for (int o : members) {
      if (marked[static_cast<std::size_t>(o)] == 0) continue;
      for (int slot = 0; slot < 2; ++slot) {
        Probe pr;
        pr.origin = o;
        pr.origin_slot = slot;
        const int lid = occs[static_cast<std::size_t>(o)].link[slot];
        const Link& l = links[static_cast<std::size_t>(lid)];
        pr.via = lid;
        pr.cur = other_end(l, o);
        absorb(pr, l, /*reversed=*/l.a != o);
        probes.push_back(std::move(pr));
      }
    }

    // The initial hop (marked occ -> first neighbor) is one routed round.
    net->charge(1);
    ++forward_steps;
    // Relay hops; each hop is one routed batch of real messages.  The
    // deterministic marking guarantees 4 hops suffice; the randomized one
    // only bounds gaps w.h.p., so it relays as long as probes are moving.
    const int max_hops = opt->marking == MarkingRule::kColeVishkin
                             ? 4
                             : static_cast<int>(occs.size()) + 1;
    for (int hop = 0; hop < max_hops; ++hop) {
      std::vector<Msg> batch;
      bool any_moving = false;
      for (Probe& pr : probes) {
        if (pr.done) continue;
        if (marked[static_cast<std::size_t>(pr.cur)] != 0) {
          pr.done = true;
          continue;
        }
        any_moving = true;
        // Move through the unmarked relay: exit via its other link.
        const Occurrence& oc = occs[static_cast<std::size_t>(pr.cur)];
        const int next_link = oc.link[0] == pr.via ? oc.link[1] : oc.link[0];
        const Link& l = links[static_cast<std::size_t>(next_link)];
        const int nxt = other_end(l, pr.cur);
        batch.push_back(Msg{oc.node, occs[static_cast<std::size_t>(nxt)].node,
                            static_cast<std::int64_t>(nxt), Word(pr.cost_diff)});
        absorb(pr, l, /*reversed=*/l.a != pr.cur);
        pr.via = next_link;
        pr.cur = nxt;
      }
      if (!batch.empty()) {
        net->lenzen_route(batch);
        ++forward_steps;
      }
      if (!any_moving) break;
    }
    for (Probe& pr : probes) {
      if (!pr.done && marked[static_cast<std::size_t>(pr.cur)] != 0) pr.done = true;
      if (!pr.done) {
        throw std::logic_error("euler contract: probe did not terminate");
      }
    }

    // Build new links; each contracted segment is discovered by exactly two
    // probes (one per direction) — keep the lexicographically smaller one.
    std::vector<std::array<int, 2>> new_link_of(occs.size(), {-1, -1});
    std::vector<Link> new_links;
    for (const Probe& pr : probes) {
      // Arrival slot at pr.cur = the slot holding pr.via.
      const Occurrence& dst = occs[static_cast<std::size_t>(pr.cur)];
      const int arrival_slot = dst.link[0] == pr.via ? 0 : 1;
      const auto key_from = std::make_pair(pr.origin, pr.origin_slot);
      const auto key_to = std::make_pair(pr.cur, arrival_slot);
      if (key_to < key_from) continue;  // the mirror probe creates it
      Link nl;
      nl.a = pr.origin;
      nl.b = pr.cur;
      nl.path = pr.path;
      nl.cost_diff = pr.cost_diff;
      nl.forced_sign = pr.forced_sign;
      const int lid = static_cast<int>(new_links.size());
      new_links.push_back(std::move(nl));
      new_link_of[static_cast<std::size_t>(pr.origin)][pr.origin_slot] = lid;
      new_link_of[static_cast<std::size_t>(pr.cur)][arrival_slot] = lid;
    }

    // Install the contracted level.
    links = std::move(new_links);
    for (std::size_t o = 0; o < occs.size(); ++o) {
      Occurrence& oc = occs[o];
      if (!oc.active || oc.terminal) continue;
      if (marked[o] == 0) {
        oc.active = false;
        continue;
      }
      oc.link[0] = new_link_of[o][0];
      oc.link[1] = new_link_of[o][1];
      if (oc.link[0] == -1 || oc.link[1] == -1) {
        throw std::logic_error("euler contract: marked occurrence lost a link");
      }
      if (oc.link[0] == oc.link[1]) {
        oc.terminal = true;
        finished.push_back(links[static_cast<std::size_t>(oc.link[0])]);
      }
    }
  }
};

}  // namespace

OrientationResult eulerian_orientation(const Graph& g, Network& net,
                                       const EulerOrientCosts* costs,
                                       const EulerOrientOptions& opt) {
  if (costs != nullptr &&
      static_cast<int>(costs->edge_cost.size()) != g.num_edges()) {
    throw std::invalid_argument("eulerian_orientation: cost size mismatch");
  }
  net.set_phase("euler/orient");
  const std::int64_t rounds_before = net.rounds();

  OrientationResult out;
  out.orientation.assign(static_cast<std::size_t>(g.num_edges()), 0);
  if (g.num_edges() == 0) return out;

  Machine mac;
  mac.g = &g;
  mac.net = &net;
  mac.costs = costs;
  mac.opt = &opt;
  mac.build_initial();

  const int max_levels =
      4 * static_cast<int>(std::ceil(std::log2(std::max(4, g.num_edges())))) + 8;
  int level = 0;
  for (; level < max_levels; ++level) {
    mac.level = level;
    {
      const obs::TraceSpan span(net.tracer(), "build_rings");
      mac.build_rings();
    }
    const std::vector<int> members = mac.ring_members();
    if (members.empty()) break;
    if (opt.marking == MarkingRule::kColeVishkin) {
      {
        const obs::TraceSpan span(net.tracer(), "cole_vishkin_coloring");
        mac.color_rings(members);
      }
      {
        const obs::TraceSpan span(net.tracer(), "ring_matching");
        mac.match_rings(members);
      }
      {
        const obs::TraceSpan span(net.tracer(), "mark_from_matching");
        mac.mark_from_matching(members);
      }
    } else {
      const obs::TraceSpan span(net.tracer(), "randomized_marking");
      mac.mark_randomized(members);
    }
    {
      const obs::TraceSpan span(net.tracer(), "contract");
      mac.contract(members);
    }
  }
  if (level >= max_levels) {
    throw std::logic_error("eulerian_orientation: contraction did not converge");
  }
  out.levels = level;

  // Leaders decide; expansion is the reverse replay (charged below).
  for (const Link& l : mac.finished) {
    std::int8_t flip = 1;
    if (l.forced_sign != 0) {
      flip = l.forced_sign;  // make the forced edge forward
    } else if (mac.costs != nullptr && l.cost_diff > 0) {
      flip = -1;  // reverse so forward cost <= backward cost
    }
    for (const auto& [edge, sign] : l.path) {
      out.orientation[static_cast<std::size_t>(edge)] =
          static_cast<std::int8_t>(sign * flip);
    }
  }
  // Defensive: every edge must be covered by exactly one terminal cycle.
  for (std::int8_t o : out.orientation) {
    if (o == 0) throw std::logic_error("eulerian_orientation: uncovered edge");
  }

  // Step 4: reverse replay of steps 2-3, charged one round per forward
  // step (not the forward pass's charged rounds).
  {
    const obs::TraceSpan span(net.tracer(), "reverse_replay");
    net.charge(mac.forward_steps);
  }

  out.rounds = net.rounds() - rounds_before;
  return out;
}

bool is_eulerian_orientation(const Graph& g,
                             const std::vector<std::int8_t>& orientation) {
  if (static_cast<int>(orientation.size()) != g.num_edges()) return false;
  std::vector<int> net_out(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    if (orientation[static_cast<std::size_t>(e)] == 1) {
      ++net_out[static_cast<std::size_t>(ed.u)];
      --net_out[static_cast<std::size_t>(ed.v)];
    } else if (orientation[static_cast<std::size_t>(e)] == -1) {
      --net_out[static_cast<std::size_t>(ed.u)];
      ++net_out[static_cast<std::size_t>(ed.v)];
    } else {
      return false;
    }
  }
  for (int v : net_out) {
    if (v != 0) return false;
  }
  return true;
}

}  // namespace lapclique::euler
