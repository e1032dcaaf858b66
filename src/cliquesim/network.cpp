#include "cliquesim/network.hpp"

#include <algorithm>
#include <span>
#include <sstream>

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

BandwidthViolation::BandwidthViolation(std::string phase, std::string primitive,
                                       std::int64_t offered, std::int64_t limit)
    : std::runtime_error(violation_message(phase, primitive, offered, limit)),
      phase_(std::move(phase)),
      primitive_(std::move(primitive)),
      offered_(offered),
      limit_(limit) {}

Network::Network(int n) : n_(n) {
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
  if (tracer_ != nullptr) tracer_->switch_phase(phase_);
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

void Network::charge_gossip(std::int64_t words) {
  if (words < 0) throw std::invalid_argument("Network::charge_gossip: negative");
  const auto n = static_cast<std::int64_t>(n_);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    charge_impl("bcast_gossip", (words + n - 1) / n, words);
  } else {
    charge_impl("charge", (words + n - 1) / n + 1, words * n);
  }
}

void Network::record(const char* primitive, std::int64_t rounds,
                     std::int64_t words, std::int64_t max_load) {
  rounds_ += rounds;
  words_ += words;
  ledger_.add(phase_, rounds);
  op_log_.push_back(OpRecord{phase_, rounds, words, max_load});
  if (tracer_ != nullptr) tracer_->record_op(primitive, rounds, words, max_load);
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
  if (tracer_ != nullptr) tracer_->record_op(primitive, rounds, words, sent, recv);
}

void Network::tally(const std::vector<Msg>& msgs) {
  // Validation happens here, before any network state changes, so the
  // public operations keep the strong exception guarantee.
  sent_.assign(static_cast<std::size_t>(n_), 0);
  recv_.assign(static_cast<std::size_t>(n_), 0);
  for (const Msg& msg : msgs) {
    check_node(msg.src);
    check_node(msg.dst);
    ++sent_[static_cast<std::size_t>(msg.src)];
    ++recv_[static_cast<std::size_t>(msg.dst)];
  }
}

std::span<std::int64_t> Network::pair_keys(const std::vector<Msg>& msgs) {
  keys_.resize(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    keys_[i] = static_cast<std::int64_t>(msgs[i].src) * n_ + msgs[i].dst;
  }
  return keys_;
}

void Network::exchange(const std::vector<Msg>& msgs) {
  if (msgs.empty()) return;
  tally(msgs);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    // Each source broadcasts its queue one word per round; receivers filter.
    // Rounds = max words sent by one source.
    const std::int64_t max_sent = *std::max_element(sent_.begin(), sent_.end());
    record("bcast_exchange", max_sent, static_cast<std::int64_t>(msgs.size()),
           sent_, recv_);
  } else {
    // Rounds = max multiplicity over ordered (src,dst) pairs.
    record("exchange", max_multiplicity(pair_keys(msgs)),
           static_cast<std::int64_t>(msgs.size()), sent_, recv_);
  }
  run_recovery(msgs);
}

void Network::lenzen_route(const std::vector<Msg>& msgs) {
  if (msgs.empty()) return;
  tally(msgs);
  if (routing_mode_ == RoutingMode::kBroadcast) {
    // No routing needed: every broadcast is heard by all, so the batch takes
    // exactly max-words-per-source rounds regardless of the receive profile.
    const std::int64_t max_sent = *std::max_element(sent_.begin(), sent_.end());
    record("bcast_route", max_sent, static_cast<std::int64_t>(msgs.size()), sent_,
           recv_);
    run_recovery(msgs);
    return;
  }
  const std::int64_t max_load =
      std::max(*std::max_element(sent_.begin(), sent_.end()),
               *std::max_element(recv_.begin(), recv_.end()));
  // Load c = ceil(max_load / n); Lenzen routes a c-load instance in O(c).
  const std::int64_t c = (max_load + n_ - 1) / n_;
  if (routing_mode_ == RoutingMode::kExecuted) {
    const std::int64_t used = execute_route(msgs, c);
    record("lenzen_route", used, static_cast<std::int64_t>(msgs.size()), sent_,
           recv_);
    run_recovery(msgs);
    return;
  }
  record("lenzen_route", lenzen_constant() * c,
         static_cast<std::int64_t>(msgs.size()), sent_, recv_);
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
  //
  // Messages of one (src, dst) pair take consecutive ranks at their source,
  // so both phases depend only on the sorted src * n + dst keys (tags and
  // payloads never reach the schedule).  A phase takes as many sub-rounds
  // as its most repeated ordered pair; a move that stays put is free.
  const std::span<std::int64_t> keys = pair_keys(msgs);
  std::sort(keys.begin(), keys.end());
  const auto n = static_cast<std::int64_t>(n_);
  std::int64_t spread = 0;
  std::size_t delivers = 0;  // deliver keys overwrite keys[0, delivers)
  std::int64_t src = -1;
  std::int64_t k = 0;  // rank of the message at its source
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::int64_t s = keys[i] / n;
    const std::int64_t dst = keys[i] % n;
    k = s == src ? k + 1 : 0;
    src = s;
    const std::int64_t j = (s + k) % n;
    // The k-th message is the (k / n + 1)-th on the ordered pair (s, j).
    if (j != s) spread = std::max(spread, k / n + 1);
    if (j != dst) keys[delivers++] = j * n + dst;
  }
  if (spread > c) raise_violation("lenzen_route", spread, c);
  const std::int64_t deliver = max_multiplicity(keys.first(delivers));
  return 4 + std::max<std::int64_t>(spread, 1) + std::max<std::int64_t>(deliver, 1);
}

void Network::run_recovery(const std::vector<Msg>& msgs) {
  if (fault_plan_ == nullptr || msgs.empty()) return;
  fault::FaultPlan& plan = *fault_plan_;
  if (!plan.spec().any_transport_faults()) return;
  auto& st = plan.stats();

  // Detection: receivers verify the per-batch checksum and sequence numbers
  // that every sender attaches, so dropped, corrupted, and crash-lost words
  // are identified exactly and duplicates are discarded on arrival.
  // Injection perturbs only the accounting: the algorithm keeps the words it
  // sent, so a fault never reaches algorithm-visible data.
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

void Network::reset_accounting() {
  rounds_ = 0;
  words_ = 0;
  ledger_ = PhaseLedger{};
  op_log_.clear();
}

NetworkSnapshot Network::snapshot() const {
  return {rounds_, words_, phase_, ledger_, op_log_};
}

void Network::restore(NetworkSnapshot s) {
  rounds_ = s.rounds;
  words_ = s.words;
  phase_ = std::move(s.phase);
  ledger_ = std::move(s.ledger);
  op_log_ = std::move(s.op_log);
}

}  // namespace lapclique::clique
