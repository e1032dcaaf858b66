// The congested clique network: n nodes, synchronous rounds, per-round
// bandwidth of one word per ordered pair of nodes.
//
// The Network is a *deterministic round-accounting simulator*: the delivery
// primitives (direct exchange, Lenzen routing) actually move words between
// per-node mailboxes, the bulk charges (charge, charge_all_to_all,
// charge_announcement, charge_gossip) book modeled transfers, and both
// charge rounds according to the model.  Algorithms query `rounds()` for the
// quantity the paper's theorems bound.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cliquesim/arena.hpp"
#include "cliquesim/message.hpp"
#include "fault/fault_plan.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique::clique {

/// Thrown when an operation would exceed the model's bandwidth limit of one
/// word per ordered pair per round (executed routing's spread phase checks
/// it).  Carries the offending phase and the offered/allowed quantities; the
/// network's accounting, inboxes, and op log are untouched by the failed
/// operation.
class BandwidthViolation : public std::runtime_error {
 public:
  BandwidthViolation(std::string phase, std::string primitive,
                     std::int64_t offered, std::int64_t limit);

  /// Algorithm phase active when the violation occurred.
  [[nodiscard]] const std::string& phase() const { return phase_; }
  /// Primitive that rejected the batch ("lenzen_route").
  [[nodiscard]] const std::string& primitive() const { return primitive_; }
  /// Offered load (the sub-rounds the spread schedule needs).
  [[nodiscard]] std::int64_t offered() const { return offered_; }
  /// The limit that load was checked against.
  [[nodiscard]] std::int64_t limit() const { return limit_; }

 private:
  std::string phase_;
  std::string primitive_;
  std::int64_t offered_;
  std::int64_t limit_;
};

/// Per-phase breakdown of charged rounds, for bench reporting.
struct PhaseLedger {
  std::map<std::string, std::int64_t> rounds_by_phase;

  void add(const std::string& phase, std::int64_t rounds) {
    rounds_by_phase[phase] += rounds;
  }
};

/// Summary of one communication operation, kept for congestion audits.
struct OpRecord {
  std::string phase;          ///< label of the enclosing algorithm phase
  std::int64_t rounds = 0;    ///< rounds charged for this operation
  std::int64_t words = 0;     ///< total words moved
  std::int64_t max_node_load = 0;  ///< max words sent or received by one node
};

/// Value snapshot of a Network's accounting state, used by the checkpoint
/// subsystem (src/ckpt).  Inboxes are deliberately absent: snapshots are
/// only taken at batch boundaries where every delivered message has been
/// drained, which Network::snapshot() enforces.
struct NetworkSnapshot {
  std::int64_t rounds = 0;
  std::int64_t words = 0;
  std::string phase;
  PhaseLedger ledger;
  std::vector<OpRecord> op_log;
};

/// How the network realizes and charges communication.  kCharged and
/// kExecuted are two accountings of the same unicast Congested Clique;
/// kBroadcast switches to the Broadcast Congested Clique of Forster–de Vos
/// (arXiv:2205.12059).  Delivery is identical in every mode — only the
/// charging differs — so algorithm outputs are bit-identical across modes.
enum class RoutingMode {
  /// Charge the proven cost (lenzen_constant * c rounds) and deliver
  /// directly — the standard fidelity for round-complexity studies.
  kCharged,
  /// Execute a deterministic sort/spread/deliver schedule whose sub-rounds
  /// are individually checked against the one-word-per-ordered-pair
  /// bandwidth limit, and charge the rounds the schedule actually used
  /// (4 rounds for Lenzen's sorting primitive + ~2(c+1) movement rounds).
  kExecuted,
  /// Broadcast Congested Clique: per round every node sends ONE common
  /// O(log n)-bit word heard by all others.  Point-to-point batches are
  /// re-expressed as broadcast rounds (each source broadcasts its queue one
  /// word per round, receivers filter), so a batch costs max-words-sent-by-
  /// one-source rounds and one ledgered word per broadcast.
  kBroadcast,
};

/// Stable lower-case name of a routing mode ("charged" / "executed" /
/// "broadcast") — the spelling used by --routing, LAPCLIQUE_ROUTING, and
/// runtime_to_json.
[[nodiscard]] const char* to_string(RoutingMode mode);

/// Parse the spelling produced by to_string; std::nullopt on anything else.
[[nodiscard]] std::optional<RoutingMode> routing_mode_from_string(
    std::string_view name);

/// Process-wide default mode: the LAPCLIQUE_ROUTING environment variable
/// (charged | executed | broadcast, read once), else kCharged.  Runtime's
/// routing_mode member defaults to this; a bare `Network net(n)` stays
/// kCharged so direct-construction golden tests are env-independent.
[[nodiscard]] RoutingMode default_routing_mode();

class Network {
 public:
  explicit Network(int n);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }
  [[nodiscard]] std::int64_t words_sent() const { return words_; }
  [[nodiscard]] const PhaseLedger& ledger() const { return ledger_; }
  [[nodiscard]] const std::vector<OpRecord>& op_log() const { return op_log_; }

  /// Set the label under which subsequent operations are charged.  When a
  /// RoundLedger is attached this also switches the ledger's phase span, so
  /// the flat PhaseLedger and the span tree stay in sync.
  void set_phase(std::string phase);
  [[nodiscard]] const std::string& phase() const { return phase_; }

  /// Attach a RoundLedger that observes (never charges) every operation:
  /// rounds/words per span, per-primitive totals, per-node congestion.
  /// Pass nullptr to detach.  The null-ledger case costs one pointer
  /// compare per operation; -DLAPCLIQUE_TRACE=0 compiles even that out.
  void set_tracer(obs::RoundLedger* ledger) { tracer_ = ledger; }
  [[nodiscard]] obs::RoundLedger* tracer() const { return tracer_; }

  /// Attach a FaultPlan: every delivery path (exchange, lenzen_route, and
  /// bulk charges with words > 0) then runs the deterministic
  /// detect-and-retransmit recovery protocol, charging its rounds under the
  /// dedicated "recovery" phase.  Injection never mutates
  /// delivered payloads — corrupted/dropped words are re-sent and duplicates
  /// are discarded by sequence number — so algorithm outputs stay
  /// bit-identical to the fault-free run.  Pass nullptr to detach; the
  /// detached case costs one pointer compare per operation.
  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] fault::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Charge `rounds` without moving data.  Used for sub-routines whose round
  /// cost is taken from the literature (e.g. the CKKL+19 O(n^0.158) SSSP —
  /// see DESIGN.md §3) and for purely internal computation (0 rounds).
  /// Mode-independent: literature charges and zero-word charges cost the
  /// same in every routing mode; mode-sensitive bulk transfers go through
  /// the semantic helpers below.
  void charge(std::int64_t rounds, std::int64_t words = 0);

  // --- semantic bulk charges (mode-aware) ---------------------------------
  // Each helper reproduces the historical unicast charge exactly in
  // kCharged/kExecuted (so unicast golden round counts are untouched) and
  // switches to the honest Broadcast Congested Clique cost in kBroadcast,
  // ledgered under a distinct "bcast_*" primitive.

  /// Every node exchanges k words with every other node (dense matvec,
  /// IPM electrical-solve gossip).  Unicast: k rounds, k*n*(n-1) words.
  /// Broadcast: the k per-node words are common, so k rounds, k*n words.
  void charge_all_to_all(std::int64_t k);

  /// One node announces one word to everyone.  Unicast: 1 round, n-1 words.
  /// Broadcast: 1 round, 1 word.
  void charge_announcement();

  /// W = `total_words` load-balanced words become global knowledge (clique
  /// gossip).  Unicast: ceil(W/n)+1 rounds (spray + relay via [Len13]),
  /// `unicast_words` ledgered words — call sites historically charge either
  /// W or W*n depending on whether they count deliveries, so the unicast
  /// word count is the caller's.  Broadcast: no relay phase is needed (a
  /// broadcast is heard by all), so each node broadcasts its ceil(W/n)-word
  /// share: ceil(W/n) rounds, W words.
  void charge_gossip(std::int64_t total_words, std::int64_t unicast_words);

  /// Deliver a batch of point-to-point messages subject to the per-round
  /// bandwidth limit: the batch is split into sub-rounds so that no ordered
  /// pair carries more than one word per charged round.  Charges the number
  /// of sub-rounds (max multiplicity over ordered pairs).
  void exchange(const std::vector<Msg>& msgs);

  /// Lenzen's deterministic routing: any message set in which every node
  /// sends at most `c*n` and receives at most `c*n` words is delivered in
  /// O(c) rounds.  We charge `lenzen_constant() * c` rounds and deliver
  /// directly.
  void lenzen_route(const std::vector<Msg>& msgs);

  /// The constant in the charged Lenzen bound: 16, as in the proof of
  /// Theorem 1.4.
  [[nodiscard]] static constexpr int lenzen_constant() { return 16; }

  [[nodiscard]] RoutingMode routing_mode() const { return routing_mode_; }
  void set_routing_mode(RoutingMode mode) { routing_mode_ = mode; }

  /// Drain node `v`'s inbox (messages delivered by exchange/lenzen_route).
  [[nodiscard]] std::vector<Msg> drain_inbox(int node);

  /// Peek without draining (for tests).
  [[nodiscard]] const std::vector<Msg>& inbox(int node) const;

  void reset_accounting();

  // --- checkpoint support (src/ckpt) ---

  /// Copy out the accounting state (rounds, words, phase, phase ledger, op
  /// log).  Throws std::logic_error if any inbox holds undrained messages —
  /// snapshots are only meaningful at batch boundaries.
  [[nodiscard]] NetworkSnapshot snapshot() const;
  /// Replace the accounting state.  Restores `phase` directly (without the
  /// set_phase tracer hook: the tracer's own state is restored separately by
  /// the checkpoint layer, and a switch_phase here would double-count the
  /// restored phase span).
  void restore(NetworkSnapshot s);

 private:
  void check_node(int v) const;
  /// Shared body of charge() and the semantic helpers: record under
  /// `primitive` and run bulk recovery when a fault plan is armed.
  void charge_impl(const char* primitive, std::int64_t rounds,
                   std::int64_t words);
  void deliver(const std::vector<Msg>& msgs);
  void record(const char* primitive, std::int64_t rounds, std::int64_t words,
              std::int64_t max_load);
  void record(const char* primitive, std::int64_t rounds, std::int64_t words,
              std::span<const std::int64_t> sent,
              std::span<const std::int64_t> recv);
  /// Executes the deterministic routing schedule; returns rounds used.
  std::int64_t execute_route(const std::vector<Msg>& msgs, std::int64_t c);
  [[noreturn]] void raise_violation(const char* primitive, std::int64_t offered,
                                    std::int64_t limit);
  /// Detect-and-retransmit pass over a delivered message batch; charges the
  /// retransmission rounds under the "recovery" phase.
  void run_recovery(const std::vector<Msg>& msgs);
  /// Count-based recovery for the bulk charges, where no per-message
  /// structure exists.
  void run_bulk_recovery(std::int64_t words);
  /// Charge `rec_rounds`/`rec_words` under the dedicated "recovery" phase
  /// and fold them into the plan's RecoveryStats.
  void charge_recovery(std::int64_t rec_rounds, std::int64_t rec_words);

  int n_;
  RoutingMode routing_mode_ = RoutingMode::kCharged;
  std::int64_t rounds_ = 0;
  std::int64_t words_ = 0;
  std::string phase_ = "default";
  obs::RoundLedger* tracer_ = nullptr;
  fault::FaultPlan* fault_plan_ = nullptr;
  PhaseLedger ledger_;
  std::vector<OpRecord> op_log_;
  std::vector<std::vector<Msg>> inboxes_;
  /// Per-batch scratch (tallies, slot tables, sort keys), reset at the start
  /// of every public batch operation — so each op's scratch stays valid for
  /// the op's whole tally/record/recovery sequence while the memory itself
  /// is recycled across the run (see cliquesim/arena.hpp).
  RoundArena arena_;
};

}  // namespace lapclique::clique
