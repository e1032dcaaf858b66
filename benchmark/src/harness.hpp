// lapbench harness core: timing spans, sample statistics, metric records,
// seeded instance streams, and host facts.  Everything here sits outside
// the library and only times calls into its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace lapbench {

namespace json = lapclique::obs::json;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// SplitMix64(seed, workload, index): the one source of every input.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view workload,
                                        std::uint64_t index);

/// FNV-1a over raw bytes; used to fingerprint outputs (bit-identity checks).
[[nodiscard]] std::uint64_t fingerprint(const void* data, std::size_t bytes,
                                        std::uint64_t h = 0xcbf29ce484222325ULL);

// --- spans -----------------------------------------------------------------

struct SpanRecord {
  int id = -1;
  int parent = -1;
  std::string name;
  std::string layer;
  std::int64_t op = -1;  ///< workload op index, -1 outside the op loop
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out once when the run ends.  Parents are
/// tracked per thread, so the serve workload's two client threads each build
/// their own subtrees.
class Tracer {
 public:
  explicit Tracer(std::string workload);

  int open(std::string_view name, std::string_view layer, std::int64_t op);
  void close(int id);

  /// Every child span lies inside its parent's interval.
  [[nodiscard]] bool children_within_parents() const;
  /// {"schema":"lapbench-spans-v1", "workload":..., "spans":[...]} with each
  /// span's self time (duration minus the union of its children's intervals).
  [[nodiscard]] json::Value to_json() const;

 private:
  std::string workload_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Times one public call.  With a tracer attached it also records a span;
/// with nullptr it is a plain stopwatch, so traced and untraced runs share
/// the same timing code.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::string_view layer,
       std::int64_t op = -1);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double stop();

 private:
  Tracer* tracer_;
  int id_ = -1;
  Clock::time_point start_;
  double ms_ = -1;
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolation percentile, p in [0, 100].  Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) (the default
/// "exclusive" method), the spread definition the bounds are set against.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// Whether a tail percentile has at least ten samples beyond it.
[[nodiscard]] bool tail_supported(std::size_t samples, double p);

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower" | "higher"
  std::int64_t samples = 1;
};

/// Parses a JSON file; throws std::runtime_error when unreadable.
[[nodiscard]] json::Value read_json_file(const std::string& path);
/// Writes pretty JSON, creating parent directories.
void write_json_file(const std::string& path, const json::Value& v);

// --- host -------------------------------------------------------------------

[[nodiscard]] double peak_rss_mib();
[[nodiscard]] std::int64_t llc_bytes();
/// STREAM triad a = b + s*c over three arrays of `bytes_per_array` bytes;
/// best of `reps` passes, in GB/s (24 bytes counted per element).
[[nodiscard]] double triad_gbps(std::size_t bytes_per_array, int reps);
/// nproc, compiler, build type and flags, git revision (passed in).
[[nodiscard]] json::Value host_header(const std::string& git_rev);

/// A fixed kernel owned by the benchmark, timed between unit ops: a random
/// gather over 8 MiB, a small dense matrix multiply, and mapping and
/// touching 1.5 MiB of fresh pages (about 5 ms in all).  On a shared host the
/// machine's speed drifts by 10% and more within a minute; this kernel's
/// time around an op tracks much of that drift, so op times expressed in
/// kernel times are steadier across runs than wall times.
class HostReference {
 public:
  HostReference();

  /// Times the kernel when at least kEveryMs passed since it last ran, so it
  /// costs about 4% of the loop.  Thread-safe.
  void maybe_run();
  [[nodiscard]] double median_ms() const;
  [[nodiscard]] std::int64_t samples() const;
  /// Median kernel time within kWindowMs of `t` (the nearest sample when
  /// none is that close).
  [[nodiscard]] double local_ms(Clock::time_point t) const;
  /// The interval [a, b] measured in kernel times, using local_ms per slice.
  [[nodiscard]] double kernels_in(Clock::time_point a, Clock::time_point b) const;

  static constexpr double kEveryMs = 150;
  static constexpr double kWindowMs = 1000;
  /// The kernel time that reference-scaled seconds refer to: a round figure
  /// just under the kernel's run medians on the 4-CPU baseline host
  /// (5.2-6.0 ms).
  static constexpr double kNominalMs = 5.0;

 private:
  struct Sample {
    Clock::time_point at;  ///< midpoint of the kernel run
    double ms;
  };

  static constexpr int kGemmN = 96;

  std::vector<double> data_;
  std::vector<std::uint32_t> idx_;
  std::vector<double> ma_, mb_, mc_;  ///< kGemmN x kGemmN, row-major
  mutable std::mutex mu_;
  Clock::time_point last_;
  bool running_ = false;
  std::vector<Sample> samples_;
};

}  // namespace lapbench
