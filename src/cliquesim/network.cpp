#include "cliquesim/network.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>

#include "exec/pool.hpp"

namespace lapclique::clique {

namespace {

std::string violation_message(const std::string& phase,
                              const std::string& primitive,
                              std::int64_t offered, std::int64_t limit) {
  std::ostringstream out;
  out << "bandwidth violation in " << primitive << " (phase '" << phase
      << "'): offered load " << offered << " exceeds limit " << limit;
  return out.str();
}

/// Messages per shard for batch scans; integer tallies are exact under any
/// sharding, so the grain is purely a dispatch-cost knob.
constexpr std::int64_t kMsgGrain = 4096;

/// Sorts `keys` and returns the length of the longest run of equal keys
/// (0 for an empty list): the worst multiplicity of one ordered pair (or
/// one source) in a batch.
std::int64_t max_multiplicity(std::span<std::int64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::int64_t worst = 0;
  std::int64_t run = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    run = i > 0 && keys[i] == keys[i - 1] ? run + 1 : 1;
    worst = std::max(worst, run);
  }
  return worst;
}

/// Per-node send/receive histograms plus the worst ordered-pair multiplicity
/// for one message batch.  Built in parallel: per-shard integer histograms
/// merged in shard-index order (exact), multiplicity via a key sort (the max
/// run length is order-independent).  Validation happens here, before any
/// network state changes, so callers keep the strong exception guarantee.
/// The histograms live in the caller's RoundArena (valid until the enclosing
/// public operation returns); per-shard scratch stays on the regular heap
/// because arena bumps are single-threaded.
struct BatchTally {
  std::span<std::int64_t> sent;
  std::span<std::int64_t> recv;
  std::int64_t worst_mult = 0;
};

BatchTally tally_batch(int n, const std::vector<Msg>& msgs, bool want_mult,
                       RoundArena& arena) {
  const auto m = static_cast<std::int64_t>(msgs.size());
  BatchTally t;
  t.sent = arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  t.recv = arena.alloc<std::int64_t>(static_cast<std::size_t>(n));

  struct ShardHist {
    std::vector<std::int64_t> sent;
    std::vector<std::int64_t> recv;
  };
  std::vector<ShardHist> parts = exec::sharded_map<ShardHist>(
      m, kMsgGrain, [n, &msgs](std::int64_t /*shard*/, std::int64_t b, std::int64_t e) {
        ShardHist h;
        h.sent.assign(static_cast<std::size_t>(n), 0);
        h.recv.assign(static_cast<std::size_t>(n), 0);
        for (std::int64_t i = b; i < e; ++i) {
          const Msg& msg = msgs[static_cast<std::size_t>(i)];
          if (msg.src < 0 || msg.src >= n || msg.dst < 0 || msg.dst >= n) {
            throw std::out_of_range("Network: node id out of range");
          }
          ++h.sent[static_cast<std::size_t>(msg.src)];
          ++h.recv[static_cast<std::size_t>(msg.dst)];
        }
        return h;
      });
  for (const ShardHist& h : parts) {
    for (int v = 0; v < n; ++v) {
      t.sent[static_cast<std::size_t>(v)] += h.sent[static_cast<std::size_t>(v)];
      t.recv[static_cast<std::size_t>(v)] += h.recv[static_cast<std::size_t>(v)];
    }
  }

  if (want_mult) {
    const std::span<std::int64_t> keys =
        arena.alloc<std::int64_t>(static_cast<std::size_t>(m));
    exec::parallel_for(m, kMsgGrain, [n, &msgs, &keys](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const Msg& msg = msgs[static_cast<std::size_t>(i)];
        keys[static_cast<std::size_t>(i)] =
            static_cast<std::int64_t>(msg.src) * n + msg.dst;
      }
    });
    t.worst_mult = max_multiplicity(keys);
  }
  return t;
}

}  // namespace

const char* to_string(RoutingMode mode) {
  switch (mode) {
    case RoutingMode::kCharged:
      return "charged";
    case RoutingMode::kExecuted:
      return "executed";
    case RoutingMode::kBroadcast:
      return "broadcast";
  }
  return "charged";
}

std::optional<RoutingMode> routing_mode_from_string(std::string_view name) {
  if (name == "charged") return RoutingMode::kCharged;
  if (name == "executed") return RoutingMode::kExecuted;
  if (name == "broadcast") return RoutingMode::kBroadcast;
  return std::nullopt;
}

RoutingMode default_routing_mode() {
  static const RoutingMode mode = [] {
    const char* env = std::getenv("LAPCLIQUE_ROUTING");
    if (env == nullptr) return RoutingMode::kCharged;
    return routing_mode_from_string(env).value_or(RoutingMode::kCharged);
  }();
  return mode;
}

BandwidthViolation::BandwidthViolation(std::string phase, std::string primitive,
                                       std::int64_t offered, std::int64_t limit)
    : std::runtime_error(violation_message(phase, primitive, offered, limit)),
      phase_(std::move(phase)),
      primitive_(std::move(primitive)),
      offered_(offered),
      limit_(limit) {}

Network::Network(int n) : n_(n), inboxes_(static_cast<std::size_t>(std::max(n, 0))) {
  if (n <= 0) throw std::invalid_argument("Network: n must be positive");
}

void Network::raise_violation(const char* primitive, std::int64_t offered,
                              std::int64_t limit) {
  throw BandwidthViolation(phase_, primitive, offered, limit);
}

void Network::check_node(int v) const {
  if (v < 0 || v >= n_) throw std::out_of_range("Network: node id out of range");
}

void Network::set_phase(std::string phase) {
  phase_ = std::move(phase);
#if LAPCLIQUE_TRACE
  if (tracer_ != nullptr) tracer_->switch_phase(phase_);
#endif
}

void Network::charge(std::int64_t rounds, std::int64_t words) {
  if (rounds < 0 || words < 0) throw std::invalid_argument("Network::charge: negative");
  charge_impl("charge", rounds, words);
}

void Network::charge_impl(const char* primitive, std::int64_t rounds,
                          std::int64_t words) {
  record(primitive, rounds, words, 0);
  if (fault_plan_ != nullptr && words > 0 &&
      fault_plan_->spec().any_transport_faults()) {
    run_bulk_recovery(words);
  }
}

void Network::charge_all_to_all(std::int64_t k) {
  if (k < 0) throw std::invalid_argument("Network::charge_all_to_all: negative");
  const auto n = static_cast<std::int64_t>(n_);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    charge_impl("bcast_all_to_all", k, k * n);
  } else {
    charge_impl("charge", k, k * n * (n - 1));
  }
}

void Network::charge_announcement() {
  const auto n = static_cast<std::int64_t>(n_);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    charge_impl("bcast_announce", 1, 1);
  } else {
    charge_impl("charge", 1, n - 1);
  }
}

void Network::charge_gossip(std::int64_t total_words,
                            std::int64_t unicast_words) {
  if (total_words < 0 || unicast_words < 0) {
    throw std::invalid_argument("Network::charge_gossip: negative");
  }
  const auto n = static_cast<std::int64_t>(n_);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    charge_impl("bcast_gossip", (total_words + n - 1) / n, total_words);
  } else {
    charge_impl("charge", (total_words + n - 1) / n + 1, unicast_words);
  }
}

void Network::record(const char* primitive, std::int64_t rounds,
                     std::int64_t words, std::int64_t max_load) {
  rounds_ += rounds;
  words_ += words;
  ledger_.add(phase_, rounds);
  op_log_.push_back(OpRecord{phase_, rounds, words, max_load});
#if LAPCLIQUE_TRACE
  if (tracer_ != nullptr) tracer_->record_op(primitive, rounds, words, max_load);
#else
  (void)primitive;
#endif
}

void Network::record(const char* primitive, std::int64_t rounds,
                     std::int64_t words, std::span<const std::int64_t> sent,
                     std::span<const std::int64_t> recv) {
  std::int64_t max_load = 0;
  for (std::int64_t s : sent) max_load = std::max(max_load, s);
  for (std::int64_t r : recv) max_load = std::max(max_load, r);
  rounds_ += rounds;
  words_ += words;
  ledger_.add(phase_, rounds);
  op_log_.push_back(OpRecord{phase_, rounds, words, max_load});
#if LAPCLIQUE_TRACE
  if (tracer_ != nullptr) tracer_->record_op(primitive, rounds, words, sent, recv);
#else
  (void)primitive;
#endif
}

void Network::deliver(const std::vector<Msg>& msgs) {
  const auto m = static_cast<std::int64_t>(msgs.size());
  if (m == 0) return;
  // Slot-based parallel delivery.  A sequential pass fixes each message's
  // inbox slot in arrival order (so inbox contents are byte-identical to the
  // old push_back loop at every thread count); the message copies then fan
  // out over the pool.  Scratch rides the arena (reset at public-op entry).
  const std::span<std::int64_t> cnt =
      arena_.alloc<std::int64_t>(static_cast<std::size_t>(n_));
  for (const Msg& msg : msgs) {
    check_node(msg.src);
    check_node(msg.dst);
    ++cnt[static_cast<std::size_t>(msg.dst)];
  }
  const std::span<Msg*> cursor =
      arena_.alloc<Msg*>(static_cast<std::size_t>(n_));
  for (int v = 0; v < n_; ++v) {
    auto& box = inboxes_[static_cast<std::size_t>(v)];
    const std::size_t old = box.size();
    box.resize(old + static_cast<std::size_t>(cnt[static_cast<std::size_t>(v)]));
    cursor[static_cast<std::size_t>(v)] = box.data() + old;
  }
  const std::span<Msg*> slot = arena_.alloc<Msg*>(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    slot[static_cast<std::size_t>(i)] =
        cursor[static_cast<std::size_t>(msgs[static_cast<std::size_t>(i)].dst)]++;
  }
  exec::parallel_for(m, kMsgGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      *slot[static_cast<std::size_t>(i)] = msgs[static_cast<std::size_t>(i)];
    }
  });
}

void Network::exchange(const std::vector<Msg>& msgs) {
  if (msgs.empty()) return;
  arena_.reset();
  BatchTally t = tally_batch(n_, msgs, /*want_mult=*/true, arena_);
  deliver(msgs);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    // Each source broadcasts its queue one word per round; receivers filter.
    // Rounds = max words sent by one source.
    const std::int64_t max_sent =
        *std::max_element(t.sent.begin(), t.sent.end());
    record("bcast_exchange", max_sent, static_cast<std::int64_t>(msgs.size()),
           t.sent, t.recv);
  } else {
    // Rounds = max multiplicity over ordered (src,dst) pairs.
    record("exchange", t.worst_mult, static_cast<std::int64_t>(msgs.size()),
           t.sent, t.recv);
  }
  run_recovery(msgs);
}

void Network::lenzen_route(const std::vector<Msg>& msgs) {
  if (msgs.empty()) return;
  arena_.reset();
  BatchTally t = tally_batch(n_, msgs, /*want_mult=*/false, arena_);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    // No routing needed: every broadcast is heard by all, so the batch takes
    // exactly max-words-per-source rounds regardless of the receive profile.
    const std::int64_t max_sent =
        *std::max_element(t.sent.begin(), t.sent.end());
    deliver(msgs);
    record("bcast_route", max_sent, static_cast<std::int64_t>(msgs.size()),
           t.sent, t.recv);
    run_recovery(msgs);
    return;
  }
  const std::int64_t max_load =
      std::max(*std::max_element(t.sent.begin(), t.sent.end()),
               *std::max_element(t.recv.begin(), t.recv.end()));
  // Load c = ceil(max_load / n); Lenzen routes a c-load instance in O(c).
  const std::int64_t c = (max_load + n_ - 1) / n_;
  if (routing_mode_ == RoutingMode::kExecuted) {
    const std::int64_t used = execute_route(msgs, c);
    record("lenzen_route", used, static_cast<std::int64_t>(msgs.size()), t.sent,
           t.recv);
    run_recovery(msgs);
    return;
  }
  deliver(msgs);
  record("lenzen_route", lenzen_constant() * c,
         static_cast<std::int64_t>(msgs.size()), t.sent, t.recv);
  run_recovery(msgs);
}

std::int64_t Network::execute_route(const std::vector<Msg>& msgs, std::int64_t c) {
  // Deterministic spread-then-deliver routing with verified sub-rounds:
  //   0. every source sorts its outbox by destination (internal) and the
  //      global rank order is fixed by Lenzen's O(1)-round sorting
  //      primitive, charged as 4 rounds;
  //   1. spread: source s sends its k-th message to intermediate
  //      (s + k) mod n — at most ceil(load_s / n) <= c messages per ordered
  //      pair, so the phase runs in <= c verified sub-rounds;
  //   2. deliver: each intermediate forwards its messages to their true
  //      destinations, scheduled greedily so no ordered pair repeats
  //      within a sub-round.
  // Phase 2 of the full Lenzen construction has a proven O(c) bound via an
  // extra balancing redistribution; our greedy schedule matches O(c) on
  // every workload exercised in this repository and *reports the rounds it
  // actually used*, so the accounting stays honest even on adversarial
  // batches where greedy needs more.  Every sub-round respects the
  // one-word-per-ordered-pair limit by construction of the schedule.
  std::vector<std::size_t> order(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&msgs](std::size_t a, std::size_t b) {
    const Msg& x = msgs[a];
    const Msg& y = msgs[b];
    if (x.src != y.src) return x.src < y.src;
    if (x.dst != y.dst) return x.dst < y.dst;
    if (x.tag != y.tag) return x.tag < y.tag;
    return x.payload.bits() < y.payload.bits();
  });
  std::int64_t rounds = 4;  // the sorting primitive

  // Schedule one phase of moves into sub-rounds (no ordered pair repeats
  // within one sub-round): the greedy slot assignment takes as many
  // sub-rounds as the phase's most repeated ordered pair.
  const auto run_phase = [this](const std::vector<std::pair<int, int>>& moves) {
    std::vector<std::int64_t> keys;
    keys.reserve(moves.size());
    for (const auto& mv : moves) {
      if (mv.first == mv.second) continue;  // staying put is free
      keys.push_back(static_cast<std::int64_t>(mv.first) * n_ + mv.second);
    }
    return max_multiplicity(keys);
  };

  // Phase 1: per-source round-robin over the source's destination-sorted
  // outbox.
  std::vector<int> intermediate(msgs.size(), -1);
  std::vector<std::pair<int, int>> phase1;
  phase1.reserve(msgs.size());
  {
    int prev_src = -1;
    std::size_t k = 0;
    for (std::size_t idx : order) {
      if (msgs[idx].src != prev_src) {
        prev_src = msgs[idx].src;
        k = 0;
      }
      const int j = static_cast<int>(
          (static_cast<std::size_t>(msgs[idx].src) + k++) %
          static_cast<std::size_t>(n_));
      intermediate[idx] = j;
      phase1.emplace_back(msgs[idx].src, j);
    }
  }
  const std::int64_t r1 = run_phase(phase1);
  if (r1 > c) raise_violation("lenzen_route", r1, c);
  rounds += std::max<std::int64_t>(r1, 1);

  std::vector<std::pair<int, int>> phase2;
  phase2.reserve(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    phase2.emplace_back(intermediate[i], msgs[i].dst);
  }
  rounds += std::max<std::int64_t>(run_phase(phase2), 1);

  deliver(msgs);
  return rounds;
}

void Network::run_recovery(const std::vector<Msg>& msgs) {
  if (fault_plan_ == nullptr || msgs.empty()) return;
  fault::FaultPlan& plan = *fault_plan_;
  if (!plan.spec().any_transport_faults()) return;
  auto& st = plan.stats();

  // Detection: receivers verify the per-batch checksum and sequence numbers
  // that every sender attaches, so dropped, corrupted, and crash-lost words
  // are identified exactly and duplicates are discarded on arrival.  The
  // delivered contents (already in the inboxes) are the corrected copies —
  // injection perturbs only the accounting, never algorithm-visible data.
  const std::int64_t op = plan.begin_batch();
  const int victim = plan.crash_victim(op);
  const bool crash_hits = victim >= 0 && victim < n_;
  std::vector<const Msg*> failed;
  for (const Msg& m : msgs) {
    if (crash_hits && (m.src == victim || m.dst == victim)) {
      // All words the crashed node was sending or receiving this batch are
      // lost and must be replayed after its restart.
      ++st.crash_affected_words;
      failed.push_back(&m);
      continue;
    }
    switch (plan.next_word_fate()) {
      case fault::WordFate::kDrop:
      case fault::WordFate::kCorrupt:
        failed.push_back(&m);
        break;
      case fault::WordFate::kDuplicate:
      case fault::WordFate::kOk:
        break;
    }
  }

  std::int64_t rec_rounds = 0;
  std::int64_t rec_words = 0;
  if (crash_hits) {
    ++st.crash_events;
    rec_rounds += 2;  // restart the node + resynchronize its batch state
  }
  if (!failed.empty()) ++st.faulty_batches;

  // Retransmission sub-rounds: under unicast the failed words re-run their
  // per-ordered-pair schedule; under broadcast each source rebroadcasts its
  // failed words one per round, so the bound is per source.
  const bool bcast = routing_mode_ == RoutingMode::kBroadcast;
  const auto max_pair_mult = [this, bcast](const std::vector<const Msg*>& ms) {
    std::vector<std::int64_t> keys;
    keys.reserve(ms.size());
    for (const Msg* m : ms) {
      keys.push_back(bcast ? static_cast<std::int64_t>(m->src)
                           : static_cast<std::int64_t>(m->src) * n_ + m->dst);
    }
    return max_multiplicity(keys);
  };

  int attempts = 0;
  while (!failed.empty() && attempts < plan.spec().max_retries) {
    ++attempts;
    ++st.retransmit_attempts;
    st.retransmitted_words += static_cast<std::int64_t>(failed.size());
    rec_words += static_cast<std::int64_t>(failed.size());
    // One NACK round, then the failed words re-run their sub-round schedule.
    rec_rounds += 1 + max_pair_mult(failed);
    // The retransmission itself rides the faulty channel.
    std::vector<const Msg*> still;
    for (const Msg* m : failed) {
      switch (plan.next_word_fate()) {
        case fault::WordFate::kDrop:
        case fault::WordFate::kCorrupt:
          still.push_back(m);
          break;
        case fault::WordFate::kDuplicate:
        case fault::WordFate::kOk:
          break;
      }
    }
    failed.swap(still);
  }
  if (!failed.empty()) {
    // Retry budget exhausted: switch to the armored channel, which sends
    // each word three times and takes a majority — modeled as always
    // succeeding (the adversary corrupts at most one copy per word).
    ++st.armored_batches;
    st.armored_words += static_cast<std::int64_t>(failed.size());
    rec_words += 3 * static_cast<std::int64_t>(failed.size());
    rec_rounds += 1 + 3 * max_pair_mult(failed);
  }
  charge_recovery(rec_rounds, rec_words);
}

void Network::run_bulk_recovery(std::int64_t words) {
  fault::FaultPlan& plan = *fault_plan_;
  auto& st = plan.stats();
  const std::int64_t op = plan.begin_batch();
  std::int64_t failed = plan.count_transport_faults(words);
  const int victim = plan.crash_victim(op);
  const bool crash_hits = victim >= 0 && victim < n_;
  std::int64_t rec_rounds = 0;
  std::int64_t rec_words = 0;
  if (crash_hits) {
    // A bulk transfer is load-balanced, so a crashed node accounts for a
    // 1/n share of the payload (rounded up).
    const std::int64_t share = (words + n_ - 1) / n_;
    ++st.crash_events;
    st.crash_affected_words += share;
    failed += share;
    rec_rounds += 2;
  }
  if (failed > 0) ++st.faulty_batches;
  int attempts = 0;
  while (failed > 0 && attempts < plan.spec().max_retries) {
    ++attempts;
    ++st.retransmit_attempts;
    st.retransmitted_words += failed;
    rec_words += failed;
    // Retransmitted words are spread over all n senders: one NACK round
    // plus ceil(failed / n) delivery sub-rounds.
    rec_rounds += 1 + (failed + n_ - 1) / n_;
    failed = plan.count_transport_faults(failed);
  }
  if (failed > 0) {
    ++st.armored_batches;
    st.armored_words += failed;
    rec_words += 3 * failed;
    rec_rounds += 1 + 3 * ((failed + n_ - 1) / n_);
  }
  charge_recovery(rec_rounds, rec_words);
}

void Network::charge_recovery(std::int64_t rec_rounds, std::int64_t rec_words) {
  if (rec_rounds == 0 && rec_words == 0) return;
  auto& st = fault_plan_->stats();
  st.recovery_rounds += rec_rounds;
  st.recovery_words += rec_words;
  const std::string prev = phase_;
  set_phase("recovery");
  record("recovery", rec_rounds, rec_words, 0);
  set_phase(prev);
}

std::vector<Msg> Network::drain_inbox(int node) {
  check_node(node);
  std::vector<Msg> out;
  out.swap(inboxes_[static_cast<std::size_t>(node)]);
  return out;
}

const std::vector<Msg>& Network::inbox(int node) const {
  check_node(node);
  return inboxes_[static_cast<std::size_t>(node)];
}

void Network::reset_accounting() {
  rounds_ = 0;
  words_ = 0;
  ledger_ = PhaseLedger{};
  op_log_.clear();
}

NetworkSnapshot Network::snapshot() const {
  for (const std::vector<Msg>& box : inboxes_) {
    if (!box.empty()) {
      throw std::logic_error(
          "Network::snapshot: undrained inbox — snapshots are only valid at "
          "batch boundaries");
    }
  }
  NetworkSnapshot s;
  s.rounds = rounds_;
  s.words = words_;
  s.phase = phase_;
  s.ledger = ledger_;
  s.op_log = op_log_;
  return s;
}

void Network::restore(NetworkSnapshot s) {
  rounds_ = s.rounds;
  words_ = s.words;
  phase_ = std::move(s.phase);
  ledger_ = std::move(s.ledger);
  op_log_ = std::move(s.op_log);
}

}  // namespace lapclique::clique
