#include "harness.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "graph/rng.hpp"

#ifndef LAPBENCH_BUILD_TYPE
#define LAPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAPBENCH_CXX_FLAGS
#define LAPBENCH_CXX_FLAGS "unknown"
#endif
#ifndef LAPBENCH_COMPILER
#define LAPBENCH_COMPILER "unknown"
#endif

namespace lapbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view workload,
                          std::uint64_t index) {
  const std::uint64_t w = fingerprint(workload.data(), workload.size());
  lapclique::graph::SplitMix64 a(seed ^ (w * 0x9E3779B97F4A7C15ULL));
  lapclique::graph::SplitMix64 b(a.next() + index * 0xBF58476D1CE4E5B9ULL);
  return b.next();
}

std::uint64_t fingerprint(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- spans -----------------------------------------------------------------

namespace {
/// Open spans of the calling thread (innermost last).
thread_local std::vector<int> t_open;
}  // namespace

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now()) {}

int Tracer::open(std::string_view name, std::string_view layer, std::int64_t op) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  const std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.id = static_cast<int>(spans_.size());
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.name = name;
  r.layer = layer;
  r.op = op;
  r.start_ns = now;
  r.end_ns = now;
  spans_.push_back(std::move(r));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

bool Tracer::children_within_parents() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return true;
}

json::Value Tracer::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(s.id);
  }
  json::Array out;
  out.reserve(spans_.size());
  for (const SpanRecord& s : spans_) {
    // Self time: duration minus the union of the children's intervals.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const int c : children[static_cast<std::size_t>(s.id)]) {
      const SpanRecord& k = spans_[static_cast<std::size_t>(c)];
      iv.emplace_back(k.start_ns, k.end_ns);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e >= cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e >= cur_b) covered += cur_e - cur_b;
    json::Object o;
    o.emplace("id", s.id);
    o.emplace("parent", s.parent);
    o.emplace("name", s.name);
    o.emplace("layer", s.layer);
    o.emplace("workload", workload_);
    o.emplace("op", s.op);
    o.emplace("start_ns", s.start_ns);
    o.emplace("end_ns", s.end_ns);
    o.emplace("self_ns", s.end_ns - s.start_ns - covered);
    out.emplace_back(std::move(o));
  }
  json::Object top;
  top.emplace("schema", "lapbench-spans-v1");
  top.emplace("workload", workload_);
  top.emplace("spans", json::Value(std::move(out)));
  return {std::move(top)};
}

Span::Span(Tracer* tracer, std::string_view name, std::string_view layer,
           std::int64_t op)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, layer, op);
  start_ = Clock::now();
}

double Span::stop() {
  if (ms_ < 0) {
    ms_ = ms_between(start_, Clock::now());
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  return ms_;
}

// --- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const std::int64_t m = ld + 1;
  double q[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

bool tail_supported(std::size_t samples, double p) {
  return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0;
}

json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

void write_json_file(const std::string& path, const json::Value& v) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  out << v.dump_pretty() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- host -------------------------------------------------------------------

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::int64_t llc_bytes() {
  for (const char* idx : {"index3", "index2"}) {
    std::ifstream in(std::string("/sys/devices/system/cpu/cpu0/cache/") + idx + "/size");
    std::int64_t v = 0;
    char suffix = 0;
    if (in >> v) {
      in >> suffix;
      if (suffix == 'K') v <<= 10;
      if (suffix == 'M') v <<= 20;
      return v;
    }
  }
  return std::int64_t{32} << 20;
}

double triad_gbps(std::size_t bytes_per_array, int reps) {
  const std::size_t n = bytes_per_array / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0 - static_cast<double>(i % 5);
  }
  const double s = 3.0;
  double best_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best_s = std::min(best_s, ms_between(t0, Clock::now()) / 1000.0);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  return 3.0 * static_cast<double>(n * sizeof(double)) / best_s / 1e9;
}

HostReference::HostReference()
    : data_(std::size_t{1} << 20),
      idx_(std::size_t{1} << 18),
      ma_(kGemmN * kGemmN),
      mb_(kGemmN * kGemmN),
      mc_(kGemmN * kGemmN) {
  lapclique::graph::SplitMix64 rng(0x5eed);
  for (double& d : data_) d = rng.next_double();
  for (std::uint32_t& i : idx_) i = static_cast<std::uint32_t>(rng.next_below(data_.size()));
  for (std::size_t i = 0; i < ma_.size(); ++i) {
    ma_[i] = rng.next_double();
    mb_[i] = rng.next_double();
  }
  last_ = Clock::now() - std::chrono::hours(1);
}

void HostReference::maybe_run() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (running_ || ms_between(last_, Clock::now()) < kEveryMs) return;
    running_ = true;
  }
  const auto t0 = Clock::now();
  double acc = 0;
  for (int r = 0; r < 2; ++r) {
    for (const std::uint32_t i : idx_) acc += data_[i];
  }
  // Throughput-bound floating point, like the factorizations: four dense
  // kGemmN^3 multiply-accumulates.  It slows with the shared host about as
  // much as the workloads do; a latency-bound dependency chain slowed about
  // half as much.
  constexpr int n = kGemmN;
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double a = ma_[i * n + k];
        for (int j = 0; j < n; ++j) mc_[i * n + j] += a * mb_[k * n + j];
      }
    }
  }
  volatile double sink = acc + mc_[n + 1];
  (void)sink;
  // The page-fault path: map, touch and unmap 1.5 MiB (too small to hold an
  // aligned 2 MiB huge page, so every 4 KiB page faults).
  constexpr std::size_t kMap = std::size_t{3} << 19;
  void* p = ::mmap(nullptr, kMap, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    for (std::size_t off = 0; off < kMap; off += 4096) static_cast<volatile char*>(p)[off] = 1;
    ::munmap(p, kMap);
  }
  const auto t1 = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({t0 + (t1 - t0) / 2, ms_between(t0, t1)});
  last_ = t1;
  running_ = false;
}

double HostReference::median_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> ms;
  for (const Sample& s : samples_) ms.push_back(s.ms);
  return median(ms);
}

std::int64_t HostReference::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(samples_.size());
}

double HostReference::local_ms(Clock::time_point t) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> near;
  double nearest_ms = 0;
  double nearest_gap = 1e300;
  for (const Sample& s : samples_) {
    const double gap = std::fabs(ms_between(s.at, t));
    if (gap <= kWindowMs) near.push_back(s.ms);
    if (gap < nearest_gap) {
      nearest_gap = gap;
      nearest_ms = s.ms;
    }
  }
  return near.empty() ? nearest_ms : median(near);
}

double HostReference::kernels_in(Clock::time_point a, Clock::time_point b) const {
  constexpr double kSliceMs = 250;
  const double total = ms_between(a, b);
  double kernels = 0;
  for (double off = 0; off < total; off += kSliceMs) {
    const double len = std::min(kSliceMs, total - off);
    const auto mid = a + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(off + len / 2));
    kernels += len / local_ms(mid);
  }
  return kernels;
}

json::Value host_header(const std::string& git_rev) {
  json::Object h;
  h.emplace("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  h.emplace("compiler", LAPBENCH_COMPILER);
  h.emplace("compiler_version", __VERSION__);
  h.emplace("build_type", LAPBENCH_BUILD_TYPE);
  h.emplace("cxx_flags", LAPBENCH_CXX_FLAGS);
  h.emplace("git_rev", git_rev);
  h.emplace("llc_bytes", llc_bytes());
  return {std::move(h)};
}

}  // namespace lapbench
