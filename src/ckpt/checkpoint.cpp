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

void Encoder::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void Encoder::i64_vec(const std::vector<std::int64_t>& v) {
  u64(v.size());
  for (std::int64_t x : v) i64(x);
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

std::vector<double> Decoder::f64_vec() {
  const std::size_t len = count(8, "f64 vector element");
  std::vector<double> v;
  v.reserve(len);
  for (std::size_t i = 0; i < len; ++i) v.push_back(f64());
  return v;
}

std::vector<std::int64_t> Decoder::i64_vec() {
  const std::size_t len = count(8, "i64 vector element");
  std::vector<std::int64_t> v;
  v.reserve(len);
  for (std::size_t i = 0; i < len; ++i) v.push_back(i64());
  return v;
}

void Decoder::fail(const std::string& what) const {
  throw CheckpointError(source_, offset(), what);
}

// --- snapshot codecs -------------------------------------------------------

namespace {

void encode_totals(Encoder& e, const obs::OpTotals& t) {
  e.i64(t.rounds);
  e.i64(t.words);
  e.i64(t.ops);
  e.i64(t.max_node_load);
}

obs::OpTotals decode_totals(Decoder& d) {
  obs::OpTotals t;
  t.rounds = d.i64();
  t.words = d.i64();
  t.ops = d.i64();
  t.max_node_load = d.i64();
  return t;
}

void encode_network(Encoder& e, const clique::NetworkSnapshot& s) {
  e.i64(s.rounds);
  e.i64(s.words);
  e.str(s.phase);
  e.u64(s.ledger.rounds_by_phase.size());
  for (const auto& [phase, rounds] : s.ledger.rounds_by_phase) {
    e.str(phase);
    e.i64(rounds);
  }
  e.u64(s.op_log.size());
  for (const clique::OpRecord& op : s.op_log) {
    e.str(op.phase);
    e.i64(op.rounds);
    e.i64(op.words);
    e.i64(op.max_node_load);
  }
}

clique::NetworkSnapshot decode_network(Decoder& d) {
  clique::NetworkSnapshot s;
  s.rounds = d.i64();
  s.words = d.i64();
  s.phase = d.str();
  // Minimum encoded sizes: a string is at least its 8-byte length.
  const std::size_t phases = d.count(8 + 8, "phase-ledger entry");
  for (std::size_t i = 0; i < phases; ++i) {
    std::string phase = d.str();
    s.ledger.rounds_by_phase[std::move(phase)] = d.i64();
  }
  const std::size_t ops = d.count(8 + 3 * 8, "op-log record");
  s.op_log.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    clique::OpRecord op;
    op.phase = d.str();
    op.rounds = d.i64();
    op.words = d.i64();
    op.max_node_load = d.i64();
    s.op_log.push_back(std::move(op));
  }
  return s;
}

void encode_ledger(Encoder& e, const obs::LedgerSnapshot& s) {
  e.u64(s.nodes.size());
  for (const obs::SpanNode& n : s.nodes) {
    e.str(n.name);
    e.i64(n.parent);
    e.u32(n.is_phase ? 1 : 0);
    e.i64(n.visits);
    encode_totals(e, n.self);
    e.u64(n.children.size());
    for (int c : n.children) e.i64(c);
  }
  e.u64(s.stack.size());
  for (int id : s.stack) e.i64(id);
  encode_totals(e, s.total);
  e.u64(s.primitives.size());
  for (const auto& [name, totals] : s.primitives) {
    e.str(name);
    encode_totals(e, totals);
  }
  e.u64(s.counters.size());
  for (const auto& [name, value] : s.counters) {
    e.str(name);
    e.i64(value);
  }
  e.i64_vec(s.sent);
  e.i64_vec(s.recv);
}

obs::LedgerSnapshot decode_ledger(Decoder& d) {
  obs::LedgerSnapshot s;
  // Minimum encoded sizes: a string is at least its 8-byte length, totals
  // are four i64s.
  constexpr std::size_t kTotals = 4 * 8;
  const std::size_t nodes = d.count(8 + 8 + 4 + 8 + kTotals + 8, "span node");
  s.nodes.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    obs::SpanNode n;
    n.name = d.str();
    n.parent = static_cast<int>(d.i64());
    n.is_phase = d.u32() != 0;
    n.visits = d.i64();
    n.self = decode_totals(d);
    const std::size_t kids = d.count(8, "span child");
    n.children.reserve(kids);
    for (std::size_t k = 0; k < kids; ++k) {
      n.children.push_back(static_cast<int>(d.i64()));
    }
    s.nodes.push_back(std::move(n));
  }
  const std::size_t depth = d.count(8, "span stack entry");
  s.stack.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    s.stack.push_back(static_cast<int>(d.i64()));
  }
  s.total = decode_totals(d);
  const std::size_t prims = d.count(8 + kTotals, "primitive");
  for (std::size_t i = 0; i < prims; ++i) {
    std::string name = d.str();
    s.primitives[std::move(name)] = decode_totals(d);
  }
  const std::size_t counters = d.count(8 + 8, "counter");
  for (std::size_t i = 0; i < counters; ++i) {
    std::string name = d.str();
    s.counters[std::move(name)] = d.i64();
  }
  s.sent = d.i64_vec();
  s.recv = d.i64_vec();
  return s;
}

void encode_fault_state(Encoder& e, const fault::FaultPlanSnapshot& s) {
  e.u64(s.draws);
  e.i64(s.op_counter);
  const fault::RecoveryStats& st = s.stats;
  e.i64(st.words_dropped);
  e.i64(st.words_corrupted);
  e.i64(st.words_duplicated);
  e.i64(st.crash_events);
  e.i64(st.crash_affected_words);
  e.i64(st.faulty_batches);
  e.i64(st.retransmit_attempts);
  e.i64(st.retransmitted_words);
  e.i64(st.armored_batches);
  e.i64(st.armored_words);
  e.i64(st.recovery_rounds);
  e.i64(st.recovery_words);
  e.i64(st.ipm_fallbacks);
  e.i64(st.solver_fallbacks);
}

fault::FaultPlanSnapshot decode_fault_state(Decoder& d) {
  fault::FaultPlanSnapshot s;
  s.draws = d.u64();
  s.op_counter = d.i64();
  fault::RecoveryStats& st = s.stats;
  st.words_dropped = d.i64();
  st.words_corrupted = d.i64();
  st.words_duplicated = d.i64();
  st.crash_events = d.i64();
  st.crash_affected_words = d.i64();
  st.faulty_batches = d.i64();
  st.retransmit_attempts = d.i64();
  st.retransmitted_words = d.i64();
  st.armored_batches = d.i64();
  st.armored_words = d.i64();
  st.recovery_rounds = d.i64();
  st.recovery_words = d.i64();
  st.ipm_fallbacks = d.i64();
  st.solver_fallbacks = d.i64();
  return s;
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
  Encoder e;
  e.str(ck.algo);
  e.u64(ck.graph_hash);
  e.str(ck.routing_mode);
  e.i64(ck.threads);
  e.i64(ck.batch);
  e.u32(ck.has_fault_plan ? 1 : 0);
  if (ck.has_fault_plan) {
    e.str(ck.fault_spec);
    e.u64(ck.fault_seed);
    encode_fault_state(e, ck.fault_state);
  }
  encode_network(e, ck.net);
  e.u32(ck.has_ledger ? 1 : 0);
  if (ck.has_ledger) encode_ledger(e, ck.ledger);
  e.str(ck.state);

  std::string out(kMagic, sizeof(kMagic));
  {
    Encoder head;
    head.u32(kSchemaVersion);
    out += head.take();
  }
  out += e.take();
  const std::uint64_t sum = fnv1a64(out.data(), out.size());
  Encoder tail;
  tail.u64(sum);
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
  ck.field_offsets["algo"] = d.offset();
  ck.algo = d.str();
  ck.field_offsets["graph_hash"] = d.offset();
  ck.graph_hash = d.u64();
  ck.field_offsets["routing_mode"] = d.offset();
  ck.routing_mode = d.str();
  ck.field_offsets["threads"] = d.offset();
  ck.threads = d.i64();
  ck.field_offsets["batch"] = d.offset();
  ck.batch = d.i64();
  ck.field_offsets["fault"] = d.offset();
  ck.has_fault_plan = d.u32() != 0;
  if (ck.has_fault_plan) {
    ck.fault_spec = d.str();
    ck.fault_seed = d.u64();
    ck.fault_state = decode_fault_state(d);
  }
  ck.net = decode_network(d);
  ck.field_offsets["ledger"] = d.offset();
  ck.has_ledger = d.u32() != 0;
  if (ck.has_ledger) ck.ledger = decode_ledger(d);
  ck.state = d.str();
  if (!d.done()) d.fail("trailing junk after checkpoint body");
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

std::string fault_signature(const fault::FaultPlan* plan) {
  if (plan == nullptr) return "";
  fault::FaultSpec spec = plan->spec();
  spec.preempt_at = fault::FaultSpec::kNever;
  // sock-* faults act on the serving frontend's real sockets, never on the
  // simulated run, so like preempt= they are accounting-neutral.
  spec.sock_drop = spec.sock_partial = spec.sock_slow = 0.0;
  const std::string text = fault::to_string(spec);
  if (text.empty()) return "";
  return text + "#" + std::to_string(plan->seed());
}

std::string fault_signature(const Checkpoint& ck) {
  if (!ck.has_fault_plan || ck.fault_spec.empty()) return "";
  fault::FaultSpec spec = fault::parse_fault_spec(ck.fault_spec);
  spec.preempt_at = fault::FaultSpec::kNever;
  spec.sock_drop = spec.sock_partial = spec.sock_slow = 0.0;
  const std::string text = fault::to_string(spec);
  if (text.empty()) return "";
  return text + "#" + std::to_string(ck.fault_seed);
}

void resume_run(const Checkpoint& ck, const std::string& algo,
                std::uint64_t graph_hash, clique::Network& net) {
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
