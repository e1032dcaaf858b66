#include "fault/fault_plan.hpp"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace lapclique::fault {

namespace {

/// SplitMix64 finalizer: a counter-indexed hash, so fault decisions depend
/// only on (seed, draw index) — never on wall clock or global RNG state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double u01_from(std::uint64_t bits) {
  // 53 high bits -> [0, 1) with full double resolution.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

[[noreturn]] void bad_clause(const std::string& clause, const std::string& why) {
  throw std::invalid_argument("fault spec clause '" + clause + "': " + why);
}

double parse_probability(const std::string& clause, const std::string& text) {
  std::size_t pos = 0;
  double p = 0.0;
  try {
    p = std::stod(text, &pos);
  } catch (const std::exception&) {
    bad_clause(clause, "expected a probability");
  }
  if (pos != text.size()) bad_clause(clause, "trailing junk after probability");
  if (!(p >= 0.0 && p < 1.0)) bad_clause(clause, "probability must be in [0, 1)");
  return p;
}

/// `text` as an integer in [lo, hi], the range of the field it fills.
std::int64_t parse_int(const std::string& clause, const std::string& text,
                       std::int64_t lo,
                       std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::out_of_range&) {
    bad_clause(clause, "value out of range");
  } catch (const std::exception&) {
    bad_clause(clause, "expected an integer");
  }
  if (pos != text.size()) bad_clause(clause, "trailing junk after integer");
  if (v < lo || v > hi) bad_clause(clause, "value out of range");
  return v;
}

/// A probability as the default stream prints it, unless those six
/// significant digits read back as another double: then with the 17 that
/// read back exactly, so a spec's text always parses to the spec it names.
std::string probability_text(double p) {
  std::ostringstream out;
  out << p;
  if (std::strtod(out.str().c_str(), nullptr) != p) {
    out.str("");
    out << std::setprecision(17) << p;
  }
  return out.str();
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::stringstream ss(text);
  std::string clause;
  bool any = false;
  while (std::getline(ss, clause, ',')) {
    if (clause.empty()) bad_clause(clause, "empty clause");
    any = true;
    const auto eq = clause.find('=');
    const std::string key = clause.substr(0, eq == std::string::npos ? clause.size() : eq);
    const std::string val = eq == std::string::npos ? "" : clause.substr(eq + 1);
    if (key == "drop") {
      spec.drop = parse_probability(clause, val);
    } else if (key == "corrupt") {
      spec.corrupt = parse_probability(clause, val);
    } else if (key == "dup") {
      spec.duplicate = parse_probability(clause, val);
    } else if (key == "retries") {
      spec.max_retries = static_cast<int>(
          parse_int(clause, val, 0, std::numeric_limits<int>::max()));
    } else if (key == "preempt") {
      spec.preempt_at = parse_int(clause, val, 0);
    } else if (key == "sock-drop") {
      spec.sock_drop = parse_probability(clause, val);
    } else if (key == "sock-partial") {
      spec.sock_partial = parse_probability(clause, val);
    } else if (key == "sock-slow") {
      spec.sock_slow = parse_probability(clause, val);
    } else if (key == "crash") {
      const auto at = val.find('@');
      if (at == std::string::npos) bad_clause(clause, "expected NODE@OP");
      CrashPoint cp;
      cp.node = static_cast<int>(
          parse_int(clause, val.substr(0, at), 0, std::numeric_limits<int>::max()));
      cp.op = parse_int(clause, val.substr(at + 1), 0);
      spec.crashes.push_back(cp);
    } else if (clause.rfind("ipm-nan@", 0) == 0) {
      spec.ipm_nan_at = parse_int(clause, clause.substr(8), 0);
    } else if (clause.rfind("solver-nan@", 0) == 0) {
      const std::string arg = clause.substr(11);
      spec.solver_nan_at =
          arg == "all" ? FaultSpec::kAlways : parse_int(clause, arg, 0);
    } else {
      bad_clause(clause, "unknown clause (see docs/ROBUSTNESS.md for the grammar)");
    }
  }
  if (!any) throw std::invalid_argument("fault spec: empty specification");
  if (spec.drop + spec.corrupt >= 1.0) {
    throw std::invalid_argument(
        "fault spec: drop + corrupt must stay below 1 or recovery cannot "
        "terminate");
  }
  if (spec.sock_drop + spec.sock_partial + spec.sock_slow >= 1.0) {
    throw std::invalid_argument(
        "fault spec: sock-drop + sock-partial + sock-slow must stay below 1 "
        "or every socket operation faults and clients cannot make progress");
  }
  return spec;
}

std::string to_string(const FaultSpec& spec) {
  std::ostringstream out;
  const char* sep = "";
  const auto clause = [&](auto&&... parts) {
    out << sep;
    (out << ... << parts);
    sep = ",";
  };
  if (spec.drop > 0) clause("drop=", probability_text(spec.drop));
  if (spec.corrupt > 0) clause("corrupt=", probability_text(spec.corrupt));
  if (spec.duplicate > 0) clause("dup=", probability_text(spec.duplicate));
  for (const CrashPoint& cp : spec.crashes) clause("crash=", cp.node, "@", cp.op);
  if (spec.max_retries != FaultSpec{}.max_retries) clause("retries=", spec.max_retries);
  if (spec.preempt_at != FaultSpec::kNever) clause("preempt=", spec.preempt_at);
  if (spec.sock_drop > 0) clause("sock-drop=", probability_text(spec.sock_drop));
  if (spec.sock_partial > 0) {
    clause("sock-partial=", probability_text(spec.sock_partial));
  }
  if (spec.sock_slow > 0) clause("sock-slow=", probability_text(spec.sock_slow));
  if (spec.ipm_nan_at != FaultSpec::kNever) clause("ipm-nan@", spec.ipm_nan_at);
  if (spec.solver_nan_at == FaultSpec::kAlways) {
    clause("solver-nan@all");
  } else if (spec.solver_nan_at != FaultSpec::kNever) {
    clause("solver-nan@", spec.solver_nan_at);
  }
  return out.str();
}

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

double FaultPlan::next_u01() { return u01_from(mix64(seed_ ^ draws_++)); }

int FaultPlan::crash_victim(std::int64_t op) const {
  for (const CrashPoint& cp : spec_.crashes) {
    if (cp.op == op) return cp.node;
  }
  return -1;
}

WordFate FaultPlan::next_word_fate() {
  if (!spec_.any_transport_faults()) return WordFate::kOk;
  const double u = next_u01();
  if (u < spec_.drop) {
    ++stats_.words_dropped;
    return WordFate::kDrop;
  }
  if (u < spec_.drop + spec_.corrupt) {
    ++stats_.words_corrupted;
    return WordFate::kCorrupt;
  }
  if (u < spec_.drop + spec_.corrupt + spec_.duplicate) {
    ++stats_.words_duplicated;
    return WordFate::kDuplicate;
  }
  return WordFate::kOk;
}

std::int64_t FaultPlan::count_transport_faults(std::int64_t words) {
  if (words <= 0) return 0;
  // Geometric skip-sampling: the gap to the next failing word among a
  // Bernoulli(p) stream is Geometric(p), so the loop runs O(#events) draws
  // instead of O(words) — essential for the Network's bulk charges, where
  // one all-to-all round at n=1024 moves ~10^6 words.
  const auto count_events = [this, words](double p) -> std::int64_t {
    if (p <= 0.0) return 0;
    const double log1mp = std::log1p(-p);
    std::int64_t events = 0;
    std::int64_t pos = 0;
    while (true) {
      const double u = next_u01();
      const double skip = std::floor(std::log1p(-u) / log1mp);
      pos += static_cast<std::int64_t>(skip) + 1;
      if (pos > words) break;
      ++events;
    }
    return events;
  };
  const double p = spec_.drop + spec_.corrupt;
  const std::int64_t failures = count_events(p);
  // Attribute each failure to drop vs corrupt for the stats breakdown.
  for (std::int64_t i = 0; i < failures; ++i) {
    if (next_u01() * p < spec_.drop) {
      ++stats_.words_dropped;
    } else {
      ++stats_.words_corrupted;
    }
  }
  stats_.words_duplicated += count_events(spec_.duplicate);
  return failures;
}

SockFate FaultPlan::next_sock_fate() {
  if (!spec_.any_socket_faults()) return SockFate::kOk;
  // An independent counter-indexed stream: the tag keeps socket draws
  // uncorrelated with the word-fate stream even under the same seed, and
  // the atomic counter makes the call safe from concurrent connection
  // workers sharing one plan.
  constexpr std::uint64_t kSockTag = 0x534f434b46415445ULL;  // "SOCKFATE"
  const std::uint64_t idx = sock_draws_.fetch_add(1, std::memory_order_relaxed);
  const double u = u01_from(mix64(seed_ ^ kSockTag ^ idx));
  sock_ops_.fetch_add(1, std::memory_order_relaxed);
  if (u < spec_.sock_drop) {
    sock_drops_.fetch_add(1, std::memory_order_relaxed);
    return SockFate::kDrop;
  }
  if (u < spec_.sock_drop + spec_.sock_partial) {
    sock_partials_.fetch_add(1, std::memory_order_relaxed);
    return SockFate::kPartial;
  }
  if (u < spec_.sock_drop + spec_.sock_partial + spec_.sock_slow) {
    sock_slows_.fetch_add(1, std::memory_order_relaxed);
    return SockFate::kSlow;
  }
  return SockFate::kOk;
}

SockStats FaultPlan::sock_stats() const {
  SockStats s;
  s.ops = sock_ops_.load(std::memory_order_relaxed);
  s.drops = sock_drops_.load(std::memory_order_relaxed);
  s.partials = sock_partials_.load(std::memory_order_relaxed);
  s.slows = sock_slows_.load(std::memory_order_relaxed);
  return s;
}

bool FaultPlan::ipm_nan_due(std::int64_t iteration) const {
  return spec_.ipm_nan_at != FaultSpec::kNever &&
         (spec_.ipm_nan_at == FaultSpec::kAlways ||
          spec_.ipm_nan_at == iteration);
}

bool FaultPlan::solver_nan_due(std::int64_t restart) const {
  return spec_.solver_nan_at != FaultSpec::kNever &&
         (spec_.solver_nan_at == FaultSpec::kAlways ||
          spec_.solver_nan_at == restart);
}

obs::json::Value FaultPlan::to_json() const {
  obs::json::Object root;
  root["spec"] = to_string(spec_);
  root["seed"] = static_cast<std::int64_t>(seed_);
  obs::json::Object st;
  st["words_dropped"] = stats_.words_dropped;
  st["words_corrupted"] = stats_.words_corrupted;
  st["words_duplicated"] = stats_.words_duplicated;
  st["crash_events"] = stats_.crash_events;
  st["crash_affected_words"] = stats_.crash_affected_words;
  st["faulty_batches"] = stats_.faulty_batches;
  st["retransmit_attempts"] = stats_.retransmit_attempts;
  st["retransmitted_words"] = stats_.retransmitted_words;
  st["armored_batches"] = stats_.armored_batches;
  st["armored_words"] = stats_.armored_words;
  st["recovery_rounds"] = stats_.recovery_rounds;
  st["recovery_words"] = stats_.recovery_words;
  st["ipm_fallbacks"] = stats_.ipm_fallbacks;
  st["solver_fallbacks"] = stats_.solver_fallbacks;
  root["recovery"] = std::move(st);
  if (spec_.any_socket_faults()) {
    const SockStats sk = sock_stats();
    obs::json::Object so;
    so["ops"] = sk.ops;
    so["drops"] = sk.drops;
    so["partials"] = sk.partials;
    so["slows"] = sk.slows;
    root["socket"] = std::move(so);
  }
  return obs::json::Value(std::move(root));
}

}  // namespace lapclique::fault
