// RoundLedger — the observability layer for the congested-clique simulator.
//
// Every claim this repo reproduces (Theorems 1.1–1.4, Lemma 4.2, Theorem
// 3.3) is a statement about *rounds*, so the ledger's unit of account is the
// charged model round, attributed three ways at once:
//
//   * a nestable span tree (`TraceSpan` RAII scopes: e.g.
//     `maxflow/ipm / electrical_solve / solver/chebyshev`), merged by name
//     under a common parent so loops stay compact;
//   * per-primitive totals (charge / exchange / lenzen_route / congest_step),
//     the communication-layer view;
//   * per-node send/receive congestion histograms for routed words.
//
// By construction the span-tree self-totals sum exactly to the grand total:
// every recorded operation lands in exactly one span (the root when no span
// is open), which is what lets tests assert *where* rounds are spent, not
// just how many.
//
// Cost discipline: tracing runs exactly when a caller attaches a ledger.  A
// Network with none attached pays one pointer compare per operation, and a
// TraceSpan on a null ledger does nothing; the ledger observes, never
// charges, so round counts are identical with tracing on or off.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace lapclique::obs {

/// Totals for one attribution bucket (a span's own operations, or one
/// communication primitive).
struct OpTotals {
  std::int64_t rounds = 0;
  std::int64_t words = 0;
  std::int64_t ops = 0;
  std::int64_t max_node_load = 0;  ///< max words through one node in one op

  void add(std::int64_t r, std::int64_t w, std::int64_t load) {
    rounds += r;
    words += w;
    ops += 1;
    if (load > max_node_load) max_node_load = load;
  }
};

/// One node of the span tree.  `self` excludes descendants; subtree totals
/// are computed on demand (RoundLedger::subtree).
struct SpanNode {
  std::string name;
  int parent = -1;
  bool is_phase = false;  ///< opened by Network::set_phase, not a TraceSpan
  std::int64_t visits = 0;
  OpTotals self;
  std::vector<int> children;
};

/// Value snapshot of a RoundLedger's complete state (span tree, open-span
/// stack, totals, primitive/counter maps, congestion histograms), used by
/// the checkpoint subsystem: restoring it mid-resume makes the trace JSON of
/// a resumed run byte-equal to an uninterrupted one.  The stack entries are
/// span ids into `nodes`; they stay valid across snapshot/restore because
/// span ids are assigned in deterministic first-open order.
struct LedgerSnapshot {
  std::vector<SpanNode> nodes;
  std::vector<int> stack;
  OpTotals total;
  std::map<std::string, OpTotals> primitives;
  std::map<std::string, std::int64_t> counters;
  std::vector<std::int64_t> sent;
  std::vector<std::int64_t> recv;
};

class RoundLedger {
 public:
  RoundLedger();

  RoundLedger(const RoundLedger&) = delete;
  RoundLedger& operator=(const RoundLedger&) = delete;

  // --- span management (normally via TraceSpan / Network::set_phase) ---

  /// Open a span named `name` under the current span, merging with an
  /// existing same-named child.  Returns the span id (stable across the
  /// ledger's lifetime).
  int open_span(std::string_view name, bool is_phase = false);

  /// Close span `id`, popping any deeper spans that were left open (phase
  /// spans opened inside a TraceSpan scope close with it).
  void close_span(int id);

  /// Phase switch from Network::set_phase: replaces the current phase span
  /// when one is on top of the stack, otherwise opens a nested phase span.
  void switch_phase(std::string_view name);

  [[nodiscard]] int depth() const { return static_cast<int>(stack_.size()) - 1; }

  // --- recording (called by the simulator) ---

  /// Attribute one operation to the current span and to `primitive`.
  void record_op(std::string_view primitive, std::int64_t rounds,
                 std::int64_t words, std::int64_t max_node_load = 0);

  /// As above, plus per-node congestion: `sent[v]` / `recv[v]` words moved
  /// through node v by this operation.
  void record_op(std::string_view primitive, std::int64_t rounds,
                 std::int64_t words, std::span<const std::int64_t> sent,
                 std::span<const std::int64_t> recv);

  /// Free-form named counter (e.g. chebyshev_iterations, laplacian_solves).
  void add_counter(std::string_view name, std::int64_t delta);

  // --- queries ---

  [[nodiscard]] std::int64_t total_rounds() const { return total_.rounds; }
  [[nodiscard]] std::int64_t total_words() const { return total_.words; }
  [[nodiscard]] std::int64_t total_ops() const { return total_.ops; }

  [[nodiscard]] const std::vector<SpanNode>& spans() const { return nodes_; }
  [[nodiscard]] const std::map<std::string, OpTotals>& primitives() const {
    return primitives_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& sent_histogram() const {
    return sent_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& recv_histogram() const {
    return recv_;
  }

  /// Subtree totals of span `id` (self + all descendants).
  [[nodiscard]] OpTotals subtree(int id) const;

  /// Sum of subtree rounds over every span named `name` (a loop-merged span
  /// appears once per distinct parent).
  [[nodiscard]] std::int64_t rounds_in(std::string_view name) const;

  /// Top-level breakdown for bench tables: one (name, subtree-rounds) entry
  /// per direct child of the root in first-open order, plus an
  /// "(unattributed)" entry when the root itself recorded rounds.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> breakdown() const;

  void reset();

  // --- checkpoint support ---

  /// Copy out the complete ledger state.
  [[nodiscard]] LedgerSnapshot snapshot() const;
  /// Replace the complete ledger state.  The caller must be at a program
  /// point equivalent to where the snapshot was taken (the same spans open,
  /// opened in the same order), which the IPM resume paths guarantee by
  /// restoring before any post-resume span or charge.
  void restore(LedgerSnapshot s);

  // --- export ---

  /// Structured trace (schema documented in docs/OBSERVABILITY.md).
  [[nodiscard]] json::Value to_json() const;
  /// Convenience: pretty-printed to_json().
  [[nodiscard]] std::string to_json_string() const;

 private:
  std::vector<SpanNode> nodes_;  ///< nodes_[0] is the root
  std::vector<int> stack_;       ///< open spans, root at the bottom
  OpTotals total_;
  std::map<std::string, OpTotals> primitives_;
  std::map<std::string, std::int64_t> counters_;
  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> recv_;
};

/// RAII span: opens on construction (no-op on a null ledger), closes on
/// destruction.  Instrumentation sites write
/// `const obs::TraceSpan span(net.tracer(), "name");`.
class TraceSpan {
 public:
  TraceSpan(RoundLedger* ledger, std::string_view name) : ledger_(ledger) {
    if (ledger_ != nullptr) id_ = ledger_->open_span(name);
  }
  ~TraceSpan() {
    if (ledger_ != nullptr) ledger_->close_span(id_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  RoundLedger* ledger_ = nullptr;
  int id_ = -1;
};

/// Null-safe counter bump.
inline void count(RoundLedger* ledger, std::string_view name,
                  std::int64_t delta = 1) {
  if (ledger != nullptr) ledger->add_counter(name, delta);
}

}  // namespace lapclique::obs
