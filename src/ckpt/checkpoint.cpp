#include "ckpt/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LAPCLIQUE_CKPT_POSIX 1
#else
#define LAPCLIQUE_CKPT_POSIX 0
#endif

namespace lapclique::ckpt {

std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t hash_i64(std::uint64_t h, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(u >> (8 * i));
  return fnv1a64(bytes, 8, h);
}

std::uint64_t hash_f64(std::uint64_t h, double v) {
  return hash_i64(h, static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(v)));
}

}  // namespace

std::uint64_t graph_hash(const graph::Digraph& g) {
  std::uint64_t h = fnv1a64("digraph", 7);
  h = hash_i64(h, g.num_vertices());
  h = hash_i64(h, g.num_arcs());
  for (const graph::Arc& a : g.arcs()) {
    h = hash_i64(h, a.from);
    h = hash_i64(h, a.to);
    h = hash_i64(h, a.cap);
    h = hash_i64(h, a.cost);
  }
  return h;
}

std::uint64_t graph_hash(const graph::Graph& g) {
  std::uint64_t h = fnv1a64("graph", 5);
  h = hash_i64(h, g.num_vertices());
  h = hash_i64(h, g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    h = hash_i64(h, e.u);
    h = hash_i64(h, e.v);
    h = hash_f64(h, e.w);
  }
  return h;
}

// --- Encoder / Decoder -----------------------------------------------------

void Encoder::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Encoder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Encoder::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(const std::string& s) {
  u64(s.size());
  buf_.append(s);
}

void Decoder::need(std::size_t n, const char* what) const {
  // pos_ <= size always, so the subtraction cannot wrap; a sum could.
  if (n > buf_.size() - pos_) {
    throw CheckpointError(source_, offset(),
                          std::string("truncated checkpoint: expected ") +
                              what + " (" + std::to_string(n) + " bytes, " +
                              std::to_string(buf_.size() - pos_) +
                              " remain)");
  }
}

std::uint32_t Decoder::u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t Decoder::i64() { return static_cast<std::int64_t>(u64()); }

double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::size_t Decoder::count(std::size_t min_bytes, const char* what) {
  const long long at = offset();
  const std::uint64_t n = u64();
  const std::size_t left = buf_.size() - pos_;
  if (n > left / min_bytes) {
    throw CheckpointError(source_, at,
                          std::string("impossible ") + what + " count " +
                              std::to_string(n) + ": only " +
                              std::to_string(left) + " bytes remain");
  }
  return static_cast<std::size_t>(n);
}

std::string Decoder::str() {
  const std::size_t len = count(1, "string byte");
  std::string s = buf_.substr(pos_, len);
  pos_ += len;
  return s;
}

void Decoder::fail(const std::string& what) const {
  throw CheckpointError(source_, offset(), what);
}

// --- layouts ---------------------------------------------------------------
//
// Each section's field order, written once and run by both coders.  Minimum
// encoded sizes: a string is at least its 8-byte length, totals are four
// i64s.

namespace {

constexpr std::size_t kTotals = 4 * 8;

template <typename Coder>
void totals_fields(Coder& c, Field<Coder, obs::OpTotals>& t) {
  c.i64(t.rounds);
  c.i64(t.words);
  c.i64(t.ops);
  c.i64(t.max_node_load);
}

template <typename Coder>
void network_fields(Coder& c, Field<Coder, clique::NetworkSnapshot>& s) {
  c.i64(s.rounds);
  c.i64(s.words);
  c.str(s.phase);
  c.map(s.ledger.rounds_by_phase, 8 + 8, "phase-ledger entry",
        [&](auto& rounds) { c.i64(rounds); });
  c.seq(s.op_log, 8 + 3 * 8, "op-log record", [&](auto& op) {
    c.str(op.phase);
    c.i64(op.rounds);
    c.i64(op.words);
    c.i64(op.max_node_load);
  });
}

template <typename Coder>
void ledger_fields(Coder& c, Field<Coder, obs::LedgerSnapshot>& s) {
  c.seq(s.nodes, 8 + 8 + 4 + 8 + kTotals + 8, "span node", [&](auto& n) {
    c.str(n.name);
    c.int64(n.parent);
    c.flag(n.is_phase);
    c.i64(n.visits);
    totals_fields(c, n.self);
    c.seq(n.children, 8, "span child", [&](auto& id) { c.int64(id); });
  });
  c.seq(s.stack, 8, "span stack entry", [&](auto& id) { c.int64(id); });
  totals_fields(c, s.total);
  c.map(s.primitives, 8 + kTotals, "primitive",
        [&](auto& t) { totals_fields(c, t); });
  c.map(s.counters, 8 + 8, "counter", [&](auto& v) { c.i64(v); });
  c.i64_vec(s.sent);
  c.i64_vec(s.recv);
}

template <typename Coder>
void fault_state_fields(Coder& c, Field<Coder, fault::FaultPlanSnapshot>& s) {
  c.u64(s.draws);
  c.i64(s.op_counter);
  auto& st = s.stats;
  c.i64(st.words_dropped);
  c.i64(st.words_corrupted);
  c.i64(st.words_duplicated);
  c.i64(st.crash_events);
  c.i64(st.crash_affected_words);
  c.i64(st.faulty_batches);
  c.i64(st.retransmit_attempts);
  c.i64(st.retransmitted_words);
  c.i64(st.armored_batches);
  c.i64(st.armored_words);
  c.i64(st.recovery_rounds);
  c.i64(st.recovery_words);
  c.i64(st.ipm_fallbacks);
  c.i64(st.solver_fallbacks);
}

/// The container body: header, fault state, network, ledger, payload.
template <typename Coder>
void body_fields(Coder& c, Field<Coder, Checkpoint>& ck) {
  c.mark(ck.field_offsets, "algo");
  c.str(ck.algo);
  c.mark(ck.field_offsets, "graph_hash");
  c.u64(ck.graph_hash);
  c.mark(ck.field_offsets, "routing_mode");
  c.str(ck.routing_mode);
  c.mark(ck.field_offsets, "threads");
  c.i64(ck.threads);
  c.mark(ck.field_offsets, "batch");
  c.i64(ck.batch);
  c.mark(ck.field_offsets, "fault");
  c.flag(ck.has_fault_plan);
  if (ck.has_fault_plan) {
    c.str(ck.fault_spec);
    c.u64(ck.fault_seed);
    fault_state_fields(c, ck.fault_state);
  }
  network_fields(c, ck.net);
  c.mark(ck.field_offsets, "ledger");
  c.flag(ck.has_ledger);
  if (ck.has_ledger) ledger_fields(c, ck.ledger);
  c.str(ck.state);
}

std::string where(const Checkpoint& ck) {
  return ck.source.empty() ? std::string("<checkpoint>") : ck.source;
}

long long offset_of(const Checkpoint& ck, const std::string& field) {
  const auto it = ck.field_offsets.find(field);
  // 12 = first body byte; the best locator available for in-memory
  // checkpoints that never went through decode_checkpoint.
  return it == ck.field_offsets.end() ? 12 : it->second;
}

}  // namespace

// --- container -------------------------------------------------------------

std::string encode_checkpoint(const Checkpoint& ck) {
  std::string out(kMagic, sizeof(kMagic));
  Encoder e;
  e.u32(kSchemaVersion);
  body_fields(e, ck);
  out += e.take();
  Encoder tail;
  tail.u64(fnv1a64(out.data(), out.size()));
  out += tail.take();
  return out;
}

Checkpoint decode_checkpoint(const std::string& source,
                             const std::string& bytes) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4;  // magic + schema
  constexpr std::size_t kTail = 8;                     // checksum
  if (bytes.size() < kHeader + kTail) {
    throw CheckpointError(source, static_cast<long long>(bytes.size()),
                          "truncated checkpoint: " +
                              std::to_string(bytes.size()) +
                              " bytes is smaller than the fixed container "
                              "framing (magic + schema + checksum)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(source, 0,
                          "bad magic: not a lapclique checkpoint file");
  }
  Checkpoint ck;
  ck.source = source;
  {
    const std::string schema_bytes = bytes.substr(sizeof(kMagic), 4);
    Decoder d(source, schema_bytes, sizeof(kMagic));
    ck.schema = d.u32();
  }
  if (ck.schema != kSchemaVersion) {
    throw CheckpointError(
        source, static_cast<long long>(sizeof(kMagic)),
        "schema version skew: file has v" + std::to_string(ck.schema) +
            ", this build reads v" + std::to_string(kSchemaVersion));
  }
  const std::uint64_t computed =
      fnv1a64(bytes.data(), bytes.size() - kTail);
  std::uint64_t stored = 0;
  {
    const std::string tail = bytes.substr(bytes.size() - kTail);
    Decoder d(source, tail, static_cast<std::size_t>(bytes.size() - kTail));
    stored = d.u64();
  }
  if (stored != computed) {
    throw CheckpointError(source,
                          static_cast<long long>(bytes.size() - kTail),
                          "checksum mismatch: file is corrupt (stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(computed) + ")");
  }

  const std::string body = bytes.substr(kHeader, bytes.size() - kHeader - kTail);
  Decoder d(source, body, kHeader);
  body_fields(d, ck);
  if (!d.done()) d.fail("trailing junk after checkpoint body");
  // resume_run parses the stored spec; a spec that does not parse is a
  // malformed file, rejected here at its field.
  try {
    (void)fault_signature(ck);
  } catch (const std::invalid_argument& ex) {
    throw CheckpointError(source, offset_of(ck, "fault"),
                          std::string("unparsable fault spec: ") + ex.what());
  }
  return ck;
}

void save_checkpoint(const std::string& path, const Checkpoint& ck) {
  const std::string blob = encode_checkpoint(ck);
  const std::string tmp = path + ".tmp";
#if LAPCLIQUE_CKPT_POSIX
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw CheckpointError(tmp, 0, "cannot open checkpoint temp file");
  }
  std::size_t off = 0;
  while (off < blob.size()) {
    const ::ssize_t wrote = ::write(fd, blob.data() + off, blob.size() - off);
    if (wrote < 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      throw CheckpointError(tmp, static_cast<long long>(off),
                            "short write while checkpointing");
    }
    off += static_cast<std::size_t>(wrote);
  }
  // fsync before rename: the rename must never make a not-yet-durable file
  // the "last good checkpoint".
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError(tmp, 0, "fsync failed while checkpointing");
  }
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      throw CheckpointError(tmp, 0, "write failed while checkpointing");
    }
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError(path, 0, "atomic rename of checkpoint failed");
  }
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(path, 0, "cannot open checkpoint file");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return decode_checkpoint(path, bytes);
}

// --- compatibility ---------------------------------------------------------

namespace {

/// The accounting-relevant part of a fault configuration: the spec without
/// its preempt clause (preemption schedules the kill, it never perturbs
/// accounting) or its sock-* clauses (they act on the serving frontend's
/// real sockets, never on the simulated run), plus the seed when anything
/// is left.
std::string signature(fault::FaultSpec spec, std::uint64_t seed) {
  spec.preempt_at = fault::FaultSpec::kNever;
  spec.sock_drop = spec.sock_partial = spec.sock_slow = 0.0;
  const std::string text = fault::to_string(spec);
  if (text.empty()) return "";
  return text + "#" + std::to_string(seed);
}

}  // namespace

std::string fault_signature(const fault::FaultPlan* plan) {
  return plan == nullptr ? "" : signature(plan->spec(), plan->seed());
}

std::string fault_signature(const Checkpoint& ck) {
  if (!ck.has_fault_plan || ck.fault_spec.empty()) return "";
  return signature(fault::parse_fault_spec(ck.fault_spec), ck.fault_seed);
}

void resume_run(const Checkpoint& ck, const std::string& algo,
                std::uint64_t graph_hash, clique::Network& net,
                const std::function<void()>& decode_state) {
  if (ck.algo != algo) {
    throw CheckpointError(where(ck), offset_of(ck, "algo"),
                          "checkpoint is for algorithm '" + ck.algo +
                              "' but this run is '" + algo + "'");
  }
  if (ck.graph_hash != graph_hash) {
    throw CheckpointError(
        where(ck), offset_of(ck, "graph_hash"),
        "graph hash mismatch: checkpoint " + std::to_string(ck.graph_hash) +
            ", current input " + std::to_string(graph_hash) +
            " — resuming onto a different instance would silently produce "
            "garbage");
  }
  const std::string mode = clique::to_string(net.routing_mode());
  if (ck.routing_mode != mode) {
    throw CheckpointError(where(ck), offset_of(ck, "routing_mode"),
                          "routing mode mismatch: checkpoint was written "
                          "under '" +
                              ck.routing_mode + "', this run charges '" +
                              mode + "'");
  }
  const std::string ck_sig = fault_signature(ck);
  const std::string run_sig = fault_signature(net.fault_plan());
  if (ck_sig != run_sig) {
    throw CheckpointError(
        where(ck), offset_of(ck, "fault"),
        "fault configuration mismatch: checkpoint was written under '" +
            (ck_sig.empty() ? std::string("<none>") : ck_sig) +
            "', this run injects '" +
            (run_sig.empty() ? std::string("<none>") : run_sig) +
            "' (the injected fault stream is part of the deterministic "
            "accounting)");
  }
  obs::RoundLedger* tracer = net.tracer();
  if (tracer != nullptr && !ck.has_ledger) {
    throw CheckpointError(
        where(ck), offset_of(ck, "ledger"),
        "a trace ledger is attached to the resumed run but the checkpoint "
        "carries none — the resumed trace could not be byte-faithful "
        "(resume without a tracer, or re-checkpoint with one attached)");
  }
  decode_state();
  // Order matters: nothing below throws, so a rejected resume (above) leaves
  // the run container untouched (strong guarantee).
  if (tracer != nullptr) tracer->restore(ck.ledger);
  net.restore(ck.net);
  if (net.fault_plan() != nullptr && ck.has_fault_plan) {
    net.fault_plan()->restore(ck.fault_state);
  }
}

// --- writer ----------------------------------------------------------------

CheckpointWriter::CheckpointWriter(std::string path, std::int64_t every,
                                   std::int64_t threads)
    : path_(std::move(path)), every_(every), threads_(threads) {
  if (path_.empty()) {
    throw std::invalid_argument("CheckpointWriter: empty path");
  }
  if (every_ < 1) {
    throw std::invalid_argument("CheckpointWriter: checkpoint_every must be >= 1");
  }
}

void CheckpointWriter::commit(const clique::Network& net,
                              const std::string& algo,
                              std::uint64_t graph_hash, std::int64_t batch,
                              std::string state) {
  Checkpoint ck;
  ck.algo = algo;
  ck.graph_hash = graph_hash;
  ck.routing_mode = clique::to_string(net.routing_mode());
  ck.threads = threads_;
  ck.batch = batch;
  const fault::FaultPlan* plan = net.fault_plan();
  if (plan != nullptr) {
    ck.has_fault_plan = true;
    ck.fault_spec = fault::to_string(plan->spec());
    ck.fault_seed = plan->seed();
    ck.fault_state = plan->snapshot();
  }
  ck.net = net.snapshot();
  if (net.tracer() != nullptr) {
    ck.has_ledger = true;
    ck.ledger = net.tracer()->snapshot();
  }
  ck.state = std::move(state);
  save_checkpoint(path_, ck);
  ++written_;
}

namespace {
/// The calling thread's boundary check (empty = none).  Thread-local, so
/// concurrent serve requests each enforce their own deadline.
thread_local CancellationFn tls_cancellation;
}  // namespace

CancellationScope::CancellationScope(CancellationFn fn)
    : prev_(std::move(tls_cancellation)) {
  tls_cancellation = std::move(fn);
}

CancellationScope::~CancellationScope() { tls_cancellation = std::move(prev_); }

void boundary(const CheckpointHooks& hooks, clique::Network& net,
              std::int64_t batch, const char* algo, std::uint64_t graph_hash,
              const std::function<std::string()>& encode_state) {
  if (tls_cancellation) tls_cancellation(batch);
  if (hooks.writer != nullptr && hooks.writer->due(batch)) {
    hooks.writer->commit(net, algo, graph_hash, batch, encode_state());
  }
  const fault::FaultPlan* plan = net.fault_plan();
  if (plan != nullptr && plan->preempt_due(batch)) {
    throw fault::PreemptError(batch);
  }
}

}  // namespace lapclique::ckpt
