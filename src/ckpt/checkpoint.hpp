// Deterministic checkpoint/restore for long runs.
//
// The IPM flow algorithms run Θ(√m · polylog) communication batches — the
// long-lived jobs a SLURM-style preempt/requeue world kills mid-flight.  The
// fault layer (src/fault) recovers message-level faults *inside* a live run;
// this subsystem survives the process dying: a `CheckpointWriter` attached
// via `Runtime{checkpoint_path, checkpoint_every}` serializes, at batch
// boundaries, the complete resumable state of a run —
//
//   * the algorithm payload (flow iterate, duals, congestion vectors —
//     opaque bytes laid out by the IPM's own field list),
//   * the Network accounting (rounds, words, phase, phase ledger, op log),
//   * the attached RoundLedger's full span tree (so the trace JSON of a
//     resumed run is byte-equal to an uninterrupted one),
//   * the attached FaultPlan's counters (so injected faults replay
//     identically after resume),
//
// under a header carrying a graph hash, routing mode, fault-config
// signature, and schema version.  The container format is versioned,
// checksummed (FNV-1a 64), and committed atomically (write `.tmp`, fsync,
// rename) so a crash mid-snapshot never corrupts the last good checkpoint.
//
// Restore is all-or-nothing (the strong guarantee, mirroring the PR 4 io
// hardening): truncated files, checksum mismatches, schema skew, and
// header/run mismatches each throw a located `CheckpointError` *before* any
// run state is touched.
//
// Determinism contract (pinned by tests/test_checkpoint.cpp): a run
// preempted at ANY batch and resumed from its last checkpoint produces
// byte-identical outputs, round/word ledgers, and trace JSON to an
// uninterrupted run, at any thread count and in all three routing modes.
//
// Format (little-endian throughout):
//
//   offset 0   magic   "LAPCKPT1"                      (8 bytes)
//   offset 8   schema  u32 (kSchemaVersion)
//   offset 12  body    the fields of `body_fields` (checkpoint.cpp)
//   tail       u64 FNV-1a checksum of everything before it
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "cliquesim/network.hpp"
#include "fault/fault_plan.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "io/dimacs.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique::ckpt {

inline constexpr char kMagic[8] = {'L', 'A', 'P', 'C', 'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kSchemaVersion = 1;

/// FNV-1a 64-bit, the container checksum and the graph-hash primitive.
/// Exposed so tests can craft adversarial files and callers can hash inputs.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t len,
                                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Stable content hash of the run's input graph, stored in the header so a
/// checkpoint cannot silently restore onto a different instance.
[[nodiscard]] std::uint64_t graph_hash(const graph::Digraph& g);
[[nodiscard]] std::uint64_t graph_hash(const graph::Graph& g);

/// Malformed or incompatible checkpoint file.  Derives from io::ParseError
/// so checkpoint diagnostics read like every other input diagnostic in the
/// repo: "<path> @ byte <offset>: <what>".
class CheckpointError : public io::ParseError {
 public:
  CheckpointError(const std::string& path, long long offset,
                  const std::string& what)
      : io::ParseError(path, offset, what) {}
};

// Encoder and Decoder share one set of field members, so each layout (the
// container body in checkpoint.cpp, each IPM's payload in its own file) is
// one function template that both coders run, e.g.
//
//   template <typename Coder>
//   void fields(Coder& c, Field<Coder, OpTotals>& t) { c.i64(t.rounds); ... }
//
// The Encoder's members write the field, the Decoder's overwrite it.  `seq`
// and `map` carry the minimum encoded size of one element (keys included)
// and its name, so the Decoder rejects a count the bytes left cannot back;
// `mark` records a header field's offset when decoding.

class Encoder;

/// A field as a layout takes it: const when encoding, mutable when decoding.
template <typename Coder, typename T>
using Field = std::conditional_t<std::is_same_v<Coder, Encoder>, const T, T>;

/// Append-only little-endian encoder for checkpoint bodies.
class Encoder {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< exact bit pattern, so doubles round-trip bitwise
  void str(const std::string& s);
  void f64_vec(const std::vector<double>& v) {
    seq(v, 8, "", [&](double x) { f64(x); });
  }
  void i64_vec(const std::vector<std::int64_t>& v) {
    seq(v, 8, "", [&](std::int64_t x) { i64(x); });
  }
  void flag(bool b) { u32(b ? 1 : 0); }
  /// Any integer, widened to an i64.
  template <typename Int>
  void int64(Int v) { i64(static_cast<std::int64_t>(v)); }
  /// An enumerator in [0, last], as an i64.
  template <typename Enum>
  void enumeration(Enum v, Enum, const char*) { int64(v); }
  /// A u64 count, then each element through `field`.
  template <typename T, typename Fn>
  void seq(const std::vector<T>& v, std::size_t, const char*, const Fn& field) {
    u64(v.size());
    for (const T& x : v) field(x);
  }
  /// A u64 count, then each entry as its key string and `field(value)`.
  template <typename V, typename Fn>
  void map(const std::map<std::string, V>& m, std::size_t, const char*,
           const Fn& field) {
    u64(m.size());
    for (const auto& [key, value] : m) {
      str(key);
      field(value);
    }
  }
  void mark(const std::map<std::string, long long>&, const char*) {}

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder; every read past the end, and every length or
/// element count larger than the bytes left could encode, throws a
/// CheckpointError located at the offending field (never returns garbage,
/// never allocates for a count the input cannot back).
class Decoder {
 public:
  Decoder(std::string source, const std::string& bytes, std::size_t base = 0)
      : source_(std::move(source)), buf_(bytes), base_(base) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<double> f64_vec() {
    std::vector<double> v;
    f64_vec(v);
    return v;
  }
  std::vector<std::int64_t> i64_vec() {
    std::vector<std::int64_t> v;
    i64_vec(v);
    return v;
  }
  /// A u64 element count, rejected unless the bytes left can hold that many
  /// elements of at least `min_bytes` (>= 1) encoded bytes each.  Callers
  /// reserve or loop on the result.
  std::size_t count(std::size_t min_bytes, const char* what);

  // The Encoder's field members, overwriting the field.
  void u64(std::uint64_t& v) { v = u64(); }
  void i64(std::int64_t& v) { v = i64(); }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }
  void f64_vec(std::vector<double>& v) {
    seq(v, 8, "f64 vector element", [&](double& x) { f64(x); });
  }
  void i64_vec(std::vector<std::int64_t>& v) {
    seq(v, 8, "i64 vector element", [&](std::int64_t& x) { i64(x); });
  }
  void flag(bool& b) { b = u32() != 0; }
  /// Narrows the i64 to the field's type.
  template <typename Int>
  void int64(Int& v) { v = static_cast<Int>(i64()); }
  /// Rejects, after the i64, a value outside [0, last] as "unknown <what> <v>".
  template <typename Enum>
  void enumeration(Enum& v, Enum last, const char* what) {
    const std::int64_t x = i64();
    if (x < 0 || x > static_cast<std::int64_t>(last)) {
      fail(std::string("unknown ") + what + " " + std::to_string(x));
    }
    v = static_cast<Enum>(x);
  }
  template <typename T, typename Fn>
  void seq(std::vector<T>& v, std::size_t min_bytes, const char* what,
           const Fn& field) {
    const std::size_t n = count(min_bytes, what);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) field(v.emplace_back());
  }
  template <typename V, typename Fn>
  void map(std::map<std::string, V>& m, std::size_t min_bytes,
           const char* what, const Fn& field) {
    m.clear();
    for (std::size_t i = count(min_bytes, what); i > 0; --i) field(m[str()]);
  }
  void mark(std::map<std::string, long long>& offsets, const char* name) {
    offsets[name] = offset();
  }

  /// Absolute file offset the decoder has reached (base + position).
  [[nodiscard]] long long offset() const {
    return static_cast<long long>(base_ + pos_);
  }
  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string source_;
  const std::string& buf_;
  std::size_t base_ = 0;
  std::size_t pos_ = 0;
};

/// One decoded checkpoint: the run-container snapshots plus the algorithm's
/// opaque payload.  `source` and `field_offsets` are bookkeeping filled by
/// load_checkpoint (not serialized) so compatibility errors point into the
/// file.
struct Checkpoint {
  std::uint32_t schema = kSchemaVersion;
  std::string algo;             ///< "maxflow" | "mincost"
  std::uint64_t graph_hash = 0;
  std::string routing_mode;     ///< clique::to_string spelling
  std::int64_t threads = 1;     ///< informational: writer's thread count
  std::int64_t batch = 0;       ///< boundary index this snapshot was taken at

  bool has_fault_plan = false;
  std::string fault_spec;       ///< full spec string (includes preempt=)
  std::uint64_t fault_seed = 0;
  fault::FaultPlanSnapshot fault_state;

  clique::NetworkSnapshot net;

  bool has_ledger = false;
  obs::LedgerSnapshot ledger;

  std::string state;  ///< algorithm payload, opaque to the container

  std::string source;  ///< path this was loaded from ("" if in-memory)
  std::map<std::string, long long> field_offsets;  ///< header field -> byte
};

/// Serialize to the container format (magic + schema + body + checksum).
[[nodiscard]] std::string encode_checkpoint(const Checkpoint& ck);

/// Parse and validate a container produced by encode_checkpoint.  Throws
/// CheckpointError on truncation, bad magic, schema skew, checksum mismatch,
/// or a stored fault spec that does not parse — always before returning
/// anything (strong guarantee).
[[nodiscard]] Checkpoint decode_checkpoint(const std::string& source,
                                           const std::string& bytes);

/// Atomic write: encode, write `path.tmp`, fsync, rename over `path`.
void save_checkpoint(const std::string& path, const Checkpoint& ck);

/// Read + decode_checkpoint; missing/unreadable files throw CheckpointError.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

/// The fault configuration a checkpoint must agree on with the run resuming
/// from it: spec (with the preempt clause stripped — preemption schedules
/// the kill, it never perturbs accounting) plus seed when the stripped spec
/// is non-empty.  "" means "no accounting-relevant faults".
[[nodiscard]] std::string fault_signature(const fault::FaultPlan* plan);
[[nodiscard]] std::string fault_signature(const Checkpoint& ck);

/// Continue a run from a checkpoint.  Checks the header against the run —
/// algorithm, graph hash, routing mode, and fault signature must all match —
/// and, when a tracer is attached, that the checkpoint carries a ledger for
/// it to continue (else the resumed trace could not be byte-faithful); then
/// runs `decode_state`, the algorithm's payload decoder.  Only then restores
/// the run container: network accounting, attached ledger, attached fault
/// plan.  Every rejection, the payload's included, is a located
/// CheckpointError thrown before the run is touched.  Must run before the
/// resumed code path charges anything.  Thread count is informational
/// (outputs are thread-invariant by the determinism contract) and not
/// checked.
void resume_run(const Checkpoint& ck, const std::string& algo,
                std::uint64_t graph_hash, clique::Network& net,
                const std::function<void()>& decode_state);

/// Writes checkpoints for one run.  `due(batch)` is true every `every`-th
/// boundary (boundary 0 included, so even a run preempted in its first batch
/// resumes instead of restarting).
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path, std::int64_t every = 1,
                            std::int64_t threads = 1);

  [[nodiscard]] bool due(std::int64_t batch) const {
    return every_ > 0 && batch % every_ == 0;
  }

  /// Snapshot the network (+ attached ledger and fault plan) and the given
  /// algorithm payload, and atomically commit to `path()`.
  void commit(const clique::Network& net, const std::string& algo,
              std::uint64_t graph_hash, std::int64_t batch, std::string state);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::int64_t every() const { return every_; }
  [[nodiscard]] std::int64_t threads() const { return threads_; }
  [[nodiscard]] std::int64_t written() const { return written_; }

 private:
  std::string path_;
  std::int64_t every_ = 1;
  std::int64_t threads_ = 1;
  std::int64_t written_ = 0;
};

/// How a run participates in checkpointing, threaded through the IPM option
/// structs.  Both pointers are non-owning and may be null.
struct CheckpointHooks {
  CheckpointWriter* writer = nullptr;  ///< write at due boundaries
  const Checkpoint* resume = nullptr;  ///< continue bit-identically from here

  [[nodiscard]] bool any() const {
    return writer != nullptr || resume != nullptr;
  }
};

// --- cooperative cancellation at batch boundaries --------------------------
//
// Checkpoint-batch boundaries are the IPMs' natural preemption points; the
// serving frontend (src/serve) reuses them as *deadline-check* points.  A
// CancellationScope installs a per-thread check for the duration of one
// request; the IPM loops poll it at every boundary — even when no checkpoint
// hooks are attached — so an expired deadline aborts a long run at a clean
// point instead of hanging the connection.  The check may throw any
// exception (the serve layer throws its DeadlineError); it must not touch
// the network, so an aborted run's partial accounting stays readable.

/// Per-boundary check; `batch` is the boundary index about to run.
using CancellationFn = std::function<void(std::int64_t batch)>;

/// RAII: installs `fn` as the calling thread's boundary check, restoring
/// the previous one (usually none) on destruction.  An empty fn is allowed
/// and makes the check a no-op for the scope.
class CancellationScope {
 public:
  explicit CancellationScope(CancellationFn fn);
  ~CancellationScope();
  CancellationScope(const CancellationScope&) = delete;
  CancellationScope& operator=(const CancellationScope&) = delete;

 private:
  CancellationFn prev_;
};

/// The per-boundary call the IPMs make unconditionally: run the calling
/// thread's cancellation check, write a checkpoint when one is due (the
/// payload thunk runs only then), then throw fault::PreemptError if the
/// attached plan schedules a process kill here — after the write, so a
/// preempted run always leaves a resumable snapshot of the batch it died at.
/// With no check installed, no writer, and no fault plan it does nothing.
void boundary(const CheckpointHooks& hooks, clique::Network& net,
              std::int64_t batch, const char* algo, std::uint64_t graph_hash,
              const std::function<std::string()>& encode_state);

}  // namespace lapclique::ckpt
