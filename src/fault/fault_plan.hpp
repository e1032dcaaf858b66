// Deterministic fault injection for the congested-clique simulator.
//
// The paper's theorems assume a perfectly reliable synchronous clique; this
// subsystem stress-tests the implementation against the failure modes a real
// deployment would see — dropped words, corrupted words (bit flips),
// duplicated deliveries, and crash-stop of individual nodes — while keeping
// every run *bit-for-bit reproducible*:
//
//   * a FaultPlan is purely counter-based (SplitMix64 over a seed and a
//     monotone draw counter, no wall clock, no global RNG), so the same
//     (spec, seed) pair injects the same faults into the same operations
//     on every run;
//   * the recovery layer in Network detects faults via per-batch checksums
//     and sequence numbers and re-delivers with bounded deterministic
//     retransmission rounds, charged to the round ledger under a dedicated
//     "recovery" phase — algorithm outputs stay bit-identical to the
//     fault-free run, only the round accounting grows (tests/
//     test_fault_recovery.cpp asserts both properties for any seed).
//
// The plan also carries two *drills* that deliberately poison algorithm
// state (not just transport): `ipm-nan@K` makes the interior point methods'
// electrical-flow step non-finite at iteration K, and `solver-nan@K` makes
// the Laplacian solver's residual check fail at restart K.  These exercise
// the algorithm-level guard rails (IPM fallback to the exact sequential
// baselines, solver fallback to a direct factorization); they are excluded
// from the bit-identical contract because they change the execution path.
//
// Fault-spec grammar (docs/ROBUSTNESS.md, used by `lapclique_cli --faults`):
//
//   spec       := clause ("," clause)*
//   clause     := "drop=" P | "corrupt=" P | "dup=" P
//               | "crash=" NODE "@" OP | "retries=" K | "preempt=" BATCH
//               | "ipm-nan@" ITER | "solver-nan@" (RESTART | "all")
//               | "sock-drop=" P | "sock-partial=" P | "sock-slow=" P
//   P          := probability in [0, 1)
//
// The `sock-*` clauses target the serving frontend's real TCP transport
// (src/serve/socket_io.*), not the simulated clique: `sock-drop` resets the
// connection mid-operation, `sock-partial` truncates one read/write call
// (exercising the short-I/O loops), `sock-slow` delays one call by a few
// milliseconds.  They are recovered by the retrying serve::Client, never
// enter the simulated network, and are accounting-neutral —
// any_transport_faults() excludes them and the checkpoint fault signature
// strips them.  Socket fates come from their own SplitMix64 stream with an
// atomic draw counter, so concurrent connection workers may share one plan.
//
// e.g.  --faults drop=0.01,corrupt=0.005,dup=0.01,crash=2@40 --fault-seed 7
//
// `preempt=BATCH` is the process-level crash-stop used by the checkpoint
// subsystem (src/ckpt): unlike the transport faults above, which the
// recovery layer heals inside the run, a preemption aborts the run with
// PreemptError at checkpoint-batch boundary BATCH — after that boundary's
// checkpoint write, so the killed run always leaves a resumable snapshot.
// It never perturbs accounting (any_transport_faults() excludes it), which
// is what lets a preempted-and-resumed run stay bit-identical to an
// uninterrupted one.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lapclique::fault {

/// One scheduled crash-stop: node `node` fails during communication batch
/// `op` (the Network's monotone batch counter) and is restarted by the
/// recovery layer within the same batch.
struct CrashPoint {
  int node = -1;
  std::int64_t op = -1;
};

struct FaultSpec {
  static constexpr std::int64_t kNever = -1;
  static constexpr std::int64_t kAlways = -2;

  double drop = 0.0;       ///< per-word probability of silent loss
  double corrupt = 0.0;    ///< per-word probability of a bit flip
  double duplicate = 0.0;  ///< per-word probability of double delivery
  std::vector<CrashPoint> crashes;
  /// Retransmission attempts before the recovery layer switches to the
  /// triple-redundant "armored" channel that always succeeds.
  int max_retries = 8;
  /// Drill: poison the IPM electrical-flow state at this iteration.
  std::int64_t ipm_nan_at = kNever;
  /// Drill: fail the Laplacian solver's residual check at this restart
  /// index (kAlways = every restart, exhausting the budget).
  std::int64_t solver_nan_at = kNever;
  /// Process-level crash-stop: abort the run with PreemptError at this
  /// checkpoint-batch boundary (see header comment; accounting-neutral).
  std::int64_t preempt_at = kNever;
  /// Serving-frontend socket faults (see header comment): per read()/write()
  /// probabilities of a connection reset, a truncated call, and an injected
  /// delay.  Never touch the simulated network or its accounting.
  double sock_drop = 0.0;
  double sock_partial = 0.0;
  double sock_slow = 0.0;

  /// Simulated-clique transport faults only: the sock-* clauses act on the
  /// daemon's real sockets and must not arm the in-run recovery layer (or
  /// perturb its word-fate draw stream).
  [[nodiscard]] bool any_transport_faults() const {
    return drop > 0 || corrupt > 0 || duplicate > 0 || !crashes.empty();
  }
  [[nodiscard]] bool any_socket_faults() const {
    return sock_drop > 0 || sock_partial > 0 || sock_slow > 0;
  }
};

/// Thrown by the checkpoint layer (ckpt::boundary) when the plan
/// schedules a process kill at the current batch boundary — the simulated
/// equivalent of SIGTERM from a preempting scheduler.  The run's checkpoint
/// for that boundary is on disk before this propagates.
class PreemptError : public std::runtime_error {
 public:
  explicit PreemptError(std::int64_t batch)
      : std::runtime_error("run preempted at checkpoint batch " +
                           std::to_string(batch)),
        batch_(batch) {}
  [[nodiscard]] std::int64_t batch() const { return batch_; }

 private:
  std::int64_t batch_;
};

/// Parse the grammar above.  Throws std::invalid_argument with a pointer to
/// the offending clause on malformed input.
FaultSpec parse_fault_spec(const std::string& text);
std::string to_string(const FaultSpec& spec);

/// Everything the recovery layer counted, for the machine-readable summary
/// and the bounded-overhead assertions in tests.  Invariants (asserted by
/// tests/test_fault_recovery.cpp):
///
///   retransmitted_words + armored_words
///       == words_dropped + words_corrupted + crash_affected_words
///   recovery_rounds
///       <= retransmit_attempts + retransmitted_words
///          + armored_batches + 3 * armored_words + 2 * crash_events
struct RecoveryStats {
  std::int64_t words_dropped = 0;
  std::int64_t words_corrupted = 0;
  std::int64_t words_duplicated = 0;
  std::int64_t crash_events = 0;
  std::int64_t crash_affected_words = 0;
  std::int64_t faulty_batches = 0;       ///< batches needing >= 1 retransmit
  std::int64_t retransmit_attempts = 0;  ///< detection+redelivery passes
  std::int64_t retransmitted_words = 0;
  std::int64_t armored_batches = 0;  ///< batches that exhausted max_retries
  std::int64_t armored_words = 0;
  std::int64_t recovery_rounds = 0;  ///< total rounds charged to "recovery"
  std::int64_t recovery_words = 0;   ///< total words moved by recovery
  std::int64_t ipm_fallbacks = 0;    ///< IPM -> exact-baseline degradations
  std::int64_t solver_fallbacks = 0; ///< Chebyshev -> direct-factor degradations
};

/// How the injector disposed of one transmitted word.
enum class WordFate { kOk, kDrop, kCorrupt, kDuplicate };

/// How the injector disposed of one socket read()/write() call in the serve
/// frontend (serve/socket_io.*).
enum class SockFate { kOk, kDrop, kPartial, kSlow };

/// Socket-fault tally, separate from RecoveryStats: these faults live in
/// the daemon's transport, outside the simulated clique, and are healed by
/// client retries rather than the in-run recovery layer.
struct SockStats {
  std::int64_t ops = 0;       ///< fates drawn (one per injected-path I/O call)
  std::int64_t drops = 0;     ///< connections reset mid-operation
  std::int64_t partials = 0;  ///< reads/writes truncated to force short I/O
  std::int64_t slows = 0;     ///< calls delayed by the injected sleep
};

/// Value snapshot of a FaultPlan's mutable state (draw counter, batch
/// counter, stats), used by the checkpoint subsystem: restoring it on
/// resume makes the injected fault stream — and therefore the recovery
/// rounds it charges — replay identically after the restored batch.
struct FaultPlanSnapshot {
  std::uint64_t draws = 0;
  std::int64_t op_counter = 0;
  RecoveryStats stats;
};

class FaultPlan {
 public:
  FaultPlan(const FaultSpec& spec, std::uint64_t seed);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // --- transport-level injection (called by Network) ---

  /// Start a communication batch; returns its monotone index (the unit the
  /// crash schedule is expressed in).
  std::int64_t begin_batch() { return op_counter_++; }

  /// Any node crashed in batch `op` (-1 if none; specs list one crash per op).
  [[nodiscard]] int crash_victim(std::int64_t op) const;

  /// Dispose of the next transmitted word (advances the draw counter;
  /// updates the per-kind stats).
  WordFate next_word_fate();

  /// Bulk variant for the Network's bulk charges: the number of drop/corrupt
  /// events among `words` words, computed by geometric skip-sampling in
  /// O(#events) draws.  Duplicate events are tallied in the stats but need
  /// no retransmission (sequence numbers discard them on arrival).
  std::int64_t count_transport_faults(std::int64_t words);

  // --- socket-level injection (called by serve/socket_io) ---

  /// Dispose of the next socket I/O call.  Thread-safe (atomic draw
  /// counter): the serve frontend's connection workers share one plan.  The
  /// fate at draw index i is a pure function of (seed, i) on a stream
  /// independent of the word-fate stream; which worker claims index i is
  /// scheduling-dependent, which is why sock faults are excluded from the
  /// bit-identical accounting contract (responses stay byte-identical
  /// because the protocol layer re-sends, not because fates replay).
  SockFate next_sock_fate();

  /// Snapshot of the socket-fault tally (atomics read relaxed).
  [[nodiscard]] SockStats sock_stats() const;

  // --- algorithm-level drills ---

  [[nodiscard]] bool ipm_nan_due(std::int64_t iteration) const;
  [[nodiscard]] bool solver_nan_due(std::int64_t restart) const;
  /// Whether the plan schedules a process kill at checkpoint batch `batch`.
  [[nodiscard]] bool preempt_due(std::int64_t batch) const {
    return spec_.preempt_at != FaultSpec::kNever && spec_.preempt_at == batch;
  }

  // --- checkpoint support (src/ckpt) ---

  [[nodiscard]] FaultPlanSnapshot snapshot() const {
    return FaultPlanSnapshot{draws_, op_counter_, stats_};
  }
  void restore(const FaultPlanSnapshot& s) {
    draws_ = s.draws;
    op_counter_ = s.op_counter;
    stats_ = s.stats;
  }

  // --- stats ---

  [[nodiscard]] RecoveryStats& stats() { return stats_; }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }

  /// Machine-readable recovery summary (schema in docs/ROBUSTNESS.md).
  [[nodiscard]] obs::json::Value to_json() const;

 private:
  double next_u01();

  FaultSpec spec_;
  std::uint64_t seed_ = 0;
  std::uint64_t draws_ = 0;      ///< word-fate draw counter
  std::int64_t op_counter_ = 0;  ///< communication-batch counter
  RecoveryStats stats_;
  // Socket-fault state, deliberately outside FaultPlanSnapshot: sock faults
  // never perturb the simulated run, so checkpoints need not replay them.
  std::atomic<std::uint64_t> sock_draws_{0};
  std::atomic<std::int64_t> sock_ops_{0};
  std::atomic<std::int64_t> sock_drops_{0};
  std::atomic<std::int64_t> sock_partials_{0};
  std::atomic<std::int64_t> sock_slows_{0};
};

}  // namespace lapclique::fault
