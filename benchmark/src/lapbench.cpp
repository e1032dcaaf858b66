// lapbench — the lapclique benchmark binary.
//
//   lapbench --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//            [--out DIR] [--rev GIT_REV]
//   lapbench report DIR
//   lapbench compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]
//   lapbench --list
//
// A workload run prints one `workload metric value unit samples` line per
// metric, then, as its last line, {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).  benchmark/README.md documents everything.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace lapbench {
namespace {

/// Set-up repetitions per measured run; setup_s comes from their median.
constexpr int kSetupReps = 5;
/// exec.speedup_t2: unit ops per thread count, alternated.
constexpr int kUnitReps = 3;

/// Model counts of the first pin_ops() unit ops at seed 1 (rounds, words).
/// Round counts are the paper's quantity: a change that moves them is not a
/// performance change and must say so.
struct Pin {
  const char* workload;
  std::int64_t rounds;
  std::int64_t words;
};
constexpr Pin kSeed1Pins[] = {
    {"lap_solve_sparse", 759, 785989632},
    {"serve_mixed", 15720, 1005312000},
    {"maxflow_ipm", 105370, 1199861306},
    {"mincost_ipm", 176344, 165503199},
    {"euler_orient", 188, 1310720},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lapbench: %s\n"
               "usage: lapbench --workload W [--seed S] [--seconds T] [--trace 0|1]\n"
               "                [--smoke] [--out DIR] [--rev GIT_REV]\n"
               "       lapbench report DIR\n"
               "       lapbench compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]\n"
               "       lapbench --list\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--out") {
        a.out = value();
      } else if (k == "--rev") {
        a.rev = value();
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds >= 0 && a.seconds <= 3600)) usage("--seconds must be in [0, 3600]");
  return a;
}

Metric per_op(const char* name, std::int64_t total, std::int64_t ops, const char* unit) {
  return {name, static_cast<double>(total) / static_cast<double>(ops), unit, "lower", ops};
}

json::Value metrics_json(const std::vector<Metric>& ms, bool full, const char* list = "") {
  json::Object o;
  for (const Metric& m : ms) {
    json::Object v;
    v.emplace("value", m.value);
    v.emplace("unit", m.unit);
    if (full) {
      v.emplace("better", m.better);
      v.emplace("samples", m.samples);
      v.emplace("list", list);
    }
    o.emplace(m.name, json::Value(std::move(v)));
  }
  return {std::move(o)};
}

int run_workload(const Args& a) {
  if (make_workload(a.workload, a.seed) == nullptr) {
    usage(("unknown workload " + a.workload).c_str());
  }
  const std::size_t triad_bytes =
      std::max<std::size_t>(std::size_t{64} << 20,
                            static_cast<std::size_t>(4 * llc_bytes() / 3));
  double triad_start = 0;
  if (a.trace) triad_start = triad_gbps(triad_bytes, 5);

  // Set up several times; keep the last.  The previous workload is destroyed
  // before the clock starts, so teardown never counts as set-up.  The
  // reference kernel runs between set-ups, outside the timed window.
  HostReference ref;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_wall_s;
  const int reps = a.smoke || a.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    w.reset();
    ref.maybe_run();
    const auto t0 = Clock::now();
    w = make_workload(a.workload, a.seed);
    w->setup();
    setup_wall_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  ref.maybe_run();

  Tracer tracer(a.workload);
  Tracer* t = a.trace ? &tracer : nullptr;
  LoopResult r = [&] {
    Span span(t, "workload." + a.workload, "harness");
    return w->run(a.smoke ? 0.0 : a.seconds, w->pin_ops(), t, ref);
  }();
  std::vector<std::string> failures = r.check_failures;
  const auto n = static_cast<std::int64_t>(r.ops.size());
  std::vector<double> latency_ms;
  std::vector<double> latency_ref;
  for (const OpSample& o : r.ops) {
    if (!o.latency) continue;
    latency_ms.push_back(o.ms);
    latency_ref.push_back(o.ms / ref.local_ms(o.at));
  }
  const auto n_latency = static_cast<std::int64_t>(latency_ms.size());

  // setup_s is the set-up wall time scaled to a host whose reference kernel
  // takes kNominalMs: raw wall time of the same set-up drifted by 30-40%
  // between two ten-seed sets on a shared host.
  std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_wall_s) * HostReference::kNominalMs / ref.median_ms(), "s",
       "lower", reps},
      {"op_ref_p50", median(latency_ref), "ref", "lower", n_latency},
      {"ops_per_kref", 1000.0 * static_cast<double>(n) / ref.kernels_in(r.start, r.end),
       "1/kref", "higher", n},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "lower", 1},
  };
  std::vector<Metric> details = r.details;
  details.push_back({"setup_wall_s", median(setup_wall_s), "s", "lower", reps});
  details.push_back({"op_ms_p50", median(latency_ms), "ms", "lower", n_latency});
  details.push_back({"ops_per_s", static_cast<double>(n) / (ms_between(r.start, r.end) / 1e3),
                     "1/s", "higher", n});
  details.push_back({"host.ref_ms", ref.median_ms(), "ms", "lower", ref.samples()});
  details.push_back({"fail_frac",
                     static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                     "fraction", "lower", r.attempted});
  const Metric rounds = per_op("rounds_per_op", r.model_rounds, w->pin_ops(), "rounds");
  const Metric words = per_op("words_per_op", r.model_words, w->pin_ops(), "words");

  if (a.seed == 1) {
    for (const Pin& p : kSeed1Pins) {
      if (a.workload == p.workload &&
          (r.model_rounds != p.rounds || r.model_words != p.words)) {
        failures.push_back("seed-1 model counts " + std::to_string(r.model_rounds) +
                           " rounds / " + std::to_string(r.model_words) + " words, pinned " +
                           std::to_string(p.rounds) + " / " + std::to_string(p.words));
      }
    }
  }

  std::vector<Metric> per_layer;
  if (a.trace) {
    per_layer = {rounds, words};
    const bool both = !r.traced_ms.empty() && !r.untraced_ms.empty();
    per_layer.push_back({"obs.trace_overhead_frac",
                         both ? median(r.traced_ms) / median(r.untraced_ms) - 1.0 : 0.0,
                         "fraction", "lower", n});
    std::vector<double> ms[2];
    std::string fp[2];
    for (int rep = 0; rep < kUnitReps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        const UnitOp u = w->unit_op(k + 1, t);
        ms[k].push_back(u.ms);
        if (rep == 0) fp[k] = u.fingerprint;
        if (u.fingerprint != fp[0]) {
          failures.push_back("threads-" + std::to_string(k + 1) +
                             " unit op output differs from threads-1");
        }
      }
    }
    per_layer.push_back({"exec.speedup_t2", median(ms[0]) / median(ms[1]), "ratio", "higher",
                         kUnitReps});
    for (Metric& m : run_layer_probes(a.seed, t)) per_layer.push_back(std::move(m));
    per_layer.push_back({"host.triad_gbps_start", triad_start, "GB/s", "higher", 5});
    per_layer.push_back({"host.triad_gbps_end", triad_gbps(triad_bytes, 5), "GB/s", "higher", 5});
    if (!tracer.children_within_parents()) failures.push_back("a child span outlasts its parent");
  } else {
    details.push_back(rounds);
    details.push_back(words);
  }

  std::vector<Metric>& reported = a.trace ? per_layer : end_to_end;
  for (std::vector<Metric>* list : {&reported, &details}) {
    for (Metric& m : *list) {
      if (std::isfinite(m.value)) continue;
      failures.push_back(m.name + " is not finite");
      m.value = 0;  // keeps the result line valid JSON
    }
  }
  std::vector<Metric> printed = reported;
  printed.insert(printed.end(), details.begin(), details.end());
  const bool correct = r.failed == 0 && failures.empty() && r.attempted > 0;

  if (!a.out.empty()) {
    json::Object rec;
    rec.emplace("schema", "lapclique-benchmark-v1");
    rec.emplace("kind", "run");
    rec.emplace("workload", a.workload);
    rec.emplace("seed", static_cast<std::int64_t>(a.seed));
    rec.emplace("seconds", a.seconds);
    rec.emplace("smoke", a.smoke);
    rec.emplace("trace", a.trace);
    rec.emplace("host", host_header(a.rev));
    rec.emplace("correct", correct);
    rec.emplace("attempted", r.attempted);
    rec.emplace("failed", r.failed);
    json::Array fl;
    for (const std::string& f : failures) fl.emplace_back(f);
    rec.emplace("check_failures", json::Value(std::move(fl)));
    json::Object metrics =
        metrics_json(reported, true, a.trace ? "per_layer" : "end_to_end").as_object();
    const json::Value detail_json = metrics_json(details, true, "detail");
    for (const auto& [k, m] : detail_json.as_object()) metrics.emplace(k, m);
    rec.emplace("metrics", json::Value(std::move(metrics)));
    const std::string base = a.out + "/" + a.workload;
    write_json_file(base + (a.trace ? ".trace.json" : ".json"), json::Value(std::move(rec)));
    if (a.trace) write_json_file(base + ".spans.json", tracer.to_json());
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "lapbench: check failed: %s\n", f.c_str());
  }
  for (const Metric& m : printed) {
    std::printf("%s %s %.6g %s %lld\n", a.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  json::Object last;
  last.emplace("correct", correct);
  last.emplace("attempted", r.attempted);
  last.emplace("failed", r.failed);
  last.emplace("metrics", metrics_json(reported, false));
  std::printf("%s\n", json::Value(std::move(last)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lapbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "lapbench: built without optimization; configure with "
               "-DCMAKE_BUILD_TYPE=Release (benchmark/run.sh does)\n");
  return 2;
#endif
  using namespace lapbench;
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
      for (const std::string& w : workload_names()) std::printf("%s\n", w.c_str());
      return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "report") == 0) return report_main(argc - 2, argv + 2);
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) return compare_main(argc - 2, argv + 2);
    return run_workload(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lapbench: %s\n", e.what());
    return 1;
  }
}
