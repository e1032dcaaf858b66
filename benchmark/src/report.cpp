#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace lapbench {

namespace {

namespace fs = std::filesystem;

struct Run {
  std::string path;
  std::int64_t seed = 0;
  json::Value v;
};

/// Run records under `dir` (any depth) whose directory is named set-*,
/// grouped by workload and ordered by (seed, path).
std::map<std::string, std::vector<Run>> collect(const std::string& dir, bool traced) {
  std::map<std::string, std::vector<Run>> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const fs::path& p = e.path();
    const std::string name = p.filename().string();
    if (p.parent_path().filename().string().rfind("set-", 0) != 0) continue;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0) continue;
    if (name.find(".spans.") != std::string::npos) continue;
    if ((name.find(".trace.") != std::string::npos) != traced) continue;
    json::Value v = read_json_file(p.string());
    if (!v.contains("kind") || v.at("kind").as_string() != "run") continue;
    const std::string w = v.at("workload").as_string();
    out[w].push_back({p.string(), v.at("seed").as_int(), std::move(v)});
  }
  for (auto& [w, runs] : out) {
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.seed != b.seed ? a.seed < b.seed : a.path < b.path;
    });
  }
  return out;
}

std::vector<double> values_of(const std::vector<Run>& runs, const std::string& metric) {
  std::vector<double> v;
  for (const Run& r : runs) {
    const json::Object& ms = r.v.at("metrics").as_object();
    const auto it = ms.find(metric);
    if (it != ms.end()) v.push_back(it->second.at("value").as_double());
  }
  return v;
}

double spread(const Quartiles& q) {
  return q.q2 != 0 ? (q.q3 - q.q1) / std::fabs(q.q2) : 0.0;
}

}  // namespace

int report_main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: lapbench report DIR\n");
    return 2;
  }
  const std::string dir = argv[0];
  bool correct = true;
  json::Value host;
  std::map<std::string, json::Object> per_workload;
  std::vector<std::string> lines;
  std::int64_t sets = 0;
  std::int64_t first_seed = 0;
  for (const bool traced : {false, true}) {
    for (const auto& [w, runs] : collect(dir, traced)) {
      if (!traced) {
        sets = std::max<std::int64_t>(sets, static_cast<std::int64_t>(runs.size()));
        first_seed = runs.front().seed;
      }
      if (host.is_null()) host = runs.front().v.at("host");
      json::Array seeds;
      for (const Run& r : runs) {
        correct = correct && r.v.at("correct").as_bool();
        seeds.emplace_back(r.seed);
      }
      for (const auto& [name, m] : runs.front().v.at("metrics").as_object()) {
        const std::vector<double> vals = values_of(runs, name);
        const Quartiles q = quartiles(vals);
        json::Object o;
        o.emplace("unit", m.at("unit"));
        o.emplace("better", m.at("better"));
        o.emplace("list", m.at("list"));
        o.emplace("samples", m.at("samples"));
        o.emplace("median", median(vals));
        o.emplace("q1", q.q1);
        o.emplace("q3", q.q3);
        o.emplace("spread", spread(q));
        json::Array va;
        for (const double x : vals) va.emplace_back(x);
        o.emplace("values", json::Value(std::move(va)));
        o.emplace("seeds", seeds);
        per_workload[w].emplace(name, json::Value(std::move(o)));

        char buf[512];
        int len = std::snprintf(buf, sizeof(buf), "%s %s %.6g %s %lld", w.c_str(), name.c_str(),
                                median(vals), m.at("unit").as_string().c_str(),
                                static_cast<long long>(m.at("samples").as_int()));
        if (vals.size() >= 2 && len > 0 && static_cast<std::size_t>(len) < sizeof(buf)) {
          std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                        " q1=%.6g q3=%.6g spread=%.2f%% sets=%zu", q.q1, q.q3,
                        100.0 * spread(q), vals.size());
        }
        lines.emplace_back(buf);
      }
    }
  }
  if (per_workload.empty()) {
    std::fprintf(stderr, "lapbench report: no run records under %s/set-*/\n", dir.c_str());
    return 2;
  }
  json::Object workloads;
  for (auto& [w, ms] : per_workload) {
    json::Object o;
    o.emplace("metrics", json::Value(std::move(ms)));
    workloads.emplace(w, json::Value(std::move(o)));
  }
  json::Object top;
  top.emplace("schema", "lapclique-benchmark-v1");
  top.emplace("kind", "results");
  top.emplace("host", host);
  top.emplace("seed", first_seed);
  top.emplace("sets", sets);
  top.emplace("correct", correct);
  top.emplace("workloads", json::Value(std::move(workloads)));
  write_json_file(dir + "/results.json", json::Value(std::move(top)));
  for (const std::string& l : lines) std::printf("%s\n", l.c_str());
  std::printf("results: %s/results.json (%s)\n", dir.c_str(),
              correct ? "all output checks passed" : "OUTPUT CHECKS FAILED");
  return correct ? 0 : 1;
}

int compare_main(int argc, char** argv) {
  if (argc != 2 && !(argc == 4 && std::string(argv[2]) == "--bounds")) {
    std::fprintf(stderr,
                 "usage: lapbench compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]\n");
    return 2;
  }
  // Gated metrics take their bound from BENCHMARK.json; deterministic counts
  // are exact.  Other metrics (raw wall times) get a verdict at 5% that is
  // printed but does not set the exit code: host drift alone moves them.
  std::map<std::string, double> bounds;
  if (argc == 4) {
    const json::Value manifest = read_json_file(argv[3]);
    for (const json::Value& m : manifest.at("end_to_end").as_array()) {
      bounds[m.at("name").as_string()] = m.at("bound").as_double();
    }
  }
  const auto parent = collect(argv[0], false);
  const auto change = collect(argv[1], false);
  constexpr std::size_t kMinPairs = 10;
  bool regressed = false;
  std::printf("%-17s %-26s %-9s %12s %10s %12s %10s %7s  %s\n", "workload", "metric", "unit",
              "parent_p50", "parent_iqr", "change_p50", "change_iqr", "wins", "verdict");
  for (const auto& [w, pruns] : parent) {
    const auto cit = change.find(w);
    if (cit == change.end()) continue;
    const std::size_t pairs = std::min(pruns.size(), cit->second.size());
    if (pairs < kMinPairs) {
      std::fprintf(stderr, "lapbench compare: %s has %zu pairs; at least %zu are needed\n",
                   w.c_str(), pairs, kMinPairs);
      return 2;
    }
    const std::vector<Run> p_runs(pruns.begin(), pruns.begin() + static_cast<long>(pairs));
    const std::vector<Run> c_runs(cit->second.begin(),
                                  cit->second.begin() + static_cast<long>(pairs));
    for (const auto& [name, m] : p_runs.front().v.at("metrics").as_object()) {
      const std::vector<double> p = values_of(p_runs, name);
      const std::vector<double> c = values_of(c_runs, name);
      if (p.size() != pairs || c.size() != pairs) continue;
      const std::string unit = m.at("unit").as_string();
      const bool higher = m.at("better").as_string() == "higher";
      auto better = [higher](double a, double b) { return higher ? a > b : a < b; };
      std::size_t wins = 0;
      std::size_t losses = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(c[i], p[i])) ++wins;
        if (better(p[i], c[i])) ++losses;
      }
      const Quartiles qp = quartiles(p);
      const Quartiles qc = quartiles(c);
      const bool exact = unit == "rounds" || unit == "words" || unit == "count";
      const bool gated = exact || bounds.count(name) != 0;
      const double bound = bounds.count(name) != 0 ? bounds[name] : 0.05;
      const char* verdict = "no-regression";
      if (exact) {
        // Deterministic counts: any difference is a change, compared exactly.
        if (losses > 0) {
          verdict = "regressed";
        } else if (wins > 0) {
          verdict = "improved";
        }
      } else {
        const double worse = (higher ? qp.q2 - qc.q2 : qc.q2 - qp.q2) / std::fabs(qp.q2);
        const bool all_better = better(higher ? *std::min_element(c.begin(), c.end())
                                              : *std::max_element(c.begin(), c.end()),
                                       higher ? *std::max_element(p.begin(), p.end())
                                              : *std::min_element(p.begin(), p.end()));
        if (10 * wins >= 9 * pairs && better(qc.q2, qp.q2) &&
            std::fabs(qc.q2 - qp.q2) > qp.q3 - qp.q1) {
          verdict = "improved";
        } else if (spread(qp) > bound && !all_better) {
          verdict = "unresolved";
        } else if (worse > bound) {
          verdict = "regressed";
        }
      }
      regressed = regressed || (gated && std::string(verdict) == "regressed");
      std::printf("%-17s %-26s %-9s %12.6g %10.4g %12.6g %10.4g %3zu/%-3zu  %s%s\n", w.c_str(),
                  name.c_str(), unit.c_str(), qp.q2, qp.q3 - qp.q1, qc.q2, qc.q3 - qc.q1, wins,
                  pairs, verdict, gated ? "" : " (ungated)");
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace lapbench
