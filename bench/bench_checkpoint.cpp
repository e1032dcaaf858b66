// E8 — checkpoint/resume: snapshot overhead, resume latency, warm-start
// savings.
//
// Sweep 1: checkpoint cadence (off, every 1/4/16 batches) on a max-flow run.
//   The model cost (rounds, words) must be bit-for-bit unaffected — only the
//   wall clock pays for snapshots, and the table shows how much.
// Sweep 2: preempt at a mid-run boundary, resume, and compare the resumed
//   leg's wall time against a from-scratch run (the batches the checkpoint
//   already paid for).
// Sweep 3: warm-start re-solve after an edge insertion vs a cold solve of
//   the edited instance (IPM batches saved).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/api.hpp"
#include "fault/fault_plan.hpp"
#include "flow/maxflow_ipm.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"

namespace {

long long file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<long long>(in.tellg()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lapclique;
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bench::header("E8 (checkpoint/resume)",
                "snapshots are model-cost-free; resume + warm start save work");

  const int n = 24;
  const int m = 96;
  const std::int64_t max_cap = 4;
  const std::uint64_t seed = 21;
  const graph::Digraph g = graph::random_flow_network(n, m, max_cap, seed);
  const int s = 0;
  const int t = n - 1;
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 250;
  const std::string path = "/tmp/lapclique_bench.ckpt";

  obs::json::Array cadence;
  bench::row("%-30s | %8s | %10s | %10s | %9s | %9s | %10s",
             "sweep: cadence (n=24, m=96)", "every", "rounds", "words",
             "batches", "snaps", "wall ms");
  std::int64_t rounds0 = -1;
  double wall_off = 0;
  for (const std::int64_t every : {std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{4}, std::int64_t{16}}) {
    clique::Network net(n);
    std::optional<ckpt::CheckpointWriter> writer;
    flow::MaxFlowIpmOptions copt = opt;
    if (every > 0) {
      writer.emplace(path, every);
      copt.checkpoint.writer = &*writer;
    }
    const double t0 = bench::now_ms();
    const flow::MaxFlowIpmReport rep = flow::max_flow_clique(g, s, t, net, copt);
    const double t1 = bench::now_ms();
    if (rounds0 < 0) {
      rounds0 = rep.run.rounds;
      wall_off = t1 - t0;
    }
    bench::row("%-30s | %8lld | %10lld | %10lld | %9d | %9lld | %10.1f %s", "",
               static_cast<long long>(every),
               static_cast<long long>(rep.run.rounds),
               static_cast<long long>(rep.run.words), rep.ipm_iterations,
               static_cast<long long>(writer ? writer->written() : 0), t1 - t0,
               rep.run.rounds != rounds0 ? "[ROUNDS DIVERGED]" : "");
    obs::json::Object row;
    row["checkpoint_every"] = every;
    row["rounds"] = rep.run.rounds;
    row["words"] = rep.run.words;
    row["ipm_iterations"] = rep.ipm_iterations;
    row["snapshots_written"] = writer ? writer->written() : std::int64_t{0};
    row["snapshot_bytes"] =
        every > 0 ? static_cast<std::int64_t>(file_bytes(path)) : std::int64_t{0};
    row["wall_ms"] = t1 - t0;
    row["overhead_vs_off"] = wall_off > 0 ? (t1 - t0) / wall_off : 0.0;
    cadence.push_back(obs::json::Value(std::move(row)));
  }

  // Resume latency: kill the run at a mid boundary, resume from disk.
  obs::json::Object resume_row;
  {
    fault::FaultPlan plan(fault::parse_fault_spec("preempt=8"), 1);
    clique::Network net(n);
    net.set_fault_plan(&plan);
    ckpt::CheckpointWriter writer(path, 1);
    flow::MaxFlowIpmOptions copt = opt;
    copt.checkpoint.writer = &writer;
    try {
      (void)flow::max_flow_clique(g, s, t, net, copt);
    } catch (const fault::PreemptError&) {
      // Expected: preempt=8 stops the run once batch 8's snapshot commits.
    }

    const ckpt::Checkpoint ck = ckpt::load_checkpoint(path);
    clique::Network net2(n);
    ckpt::CheckpointWriter writer2(path, 1);
    flow::MaxFlowIpmOptions ropt = opt;
    ropt.checkpoint.writer = &writer2;
    ropt.checkpoint.resume = &ck;
    const double r0 = bench::now_ms();
    const flow::MaxFlowIpmReport resumed =
        flow::max_flow_clique(g, s, t, net2, ropt);
    const double r1 = bench::now_ms();
    bench::row("%-30s | %10s | %12s | %10s", "resume after preempt=8",
               "from batch", "rounds", "wall ms");
    bench::row("%-30s | %10lld | %12lld | %10.1f %s", "",
               static_cast<long long>(ck.batch),
               static_cast<long long>(resumed.run.rounds), r1 - r0,
               resumed.run.rounds != rounds0 ? "[ROUNDS DIVERGED]" : "");
    resume_row["resumed_from_batch"] = ck.batch;
    resume_row["rounds"] = resumed.run.rounds;
    resume_row["rounds_match_uninterrupted"] = resumed.run.rounds == rounds0;
    resume_row["wall_ms"] = r1 - r0;
    resume_row["uninterrupted_wall_ms"] = wall_off;
  }

  // Warm-start re-solve after inserting one arc.
  obs::json::Object warm_row;
  {
    graph::Digraph edited = g;
    edited.add_arc(s, n / 2, 2);
    clique::Network cold_net(n);
    const double c0 = bench::now_ms();
    const flow::MaxFlowIpmReport cold =
        flow::max_flow_clique(edited, s, t, cold_net, opt);
    const double c1 = bench::now_ms();

    const ckpt::Checkpoint ck = ckpt::load_checkpoint(path);
    flow::MaxFlowIpmOptions wopt = opt;
    wopt.checkpoint.warm_start = &ck;
    clique::Network warm_net(n);
    const double w0 = bench::now_ms();
    const flow::MaxFlowIpmReport warm =
        flow::max_flow_clique(edited, s, t, warm_net, wopt);
    const double w1 = bench::now_ms();
    bench::row("%-30s | %9s | %9s | %10s | %10s", "warm re-solve (+1 arc)",
               "batches", "saved", "rounds", "wall ms");
    bench::row("%-30s | %9d | %9s | %10lld | %10.1f", "cold", cold.ipm_iterations,
               "-", static_cast<long long>(cold.run.rounds), c1 - c0);
    bench::row("%-30s | %9d | %9lld | %10lld | %10.1f %s", "warm",
               warm.ipm_iterations,
               static_cast<long long>(warm.run.warm_saved_iterations),
               static_cast<long long>(warm.run.rounds), w1 - w0,
               warm.value != cold.value ? "[VALUE DIVERGED]" : "");
    warm_row["cold_ipm_iterations"] = cold.ipm_iterations;
    warm_row["warm_ipm_iterations"] = warm.ipm_iterations;
    warm_row["warm_saved_iterations"] = warm.run.warm_saved_iterations;
    warm_row["cold_wall_ms"] = c1 - c0;
    warm_row["warm_wall_ms"] = w1 - w0;
    warm_row["values_match"] = warm.value == cold.value;
  }

  if (json_path != nullptr) {
    obs::json::Object doc;
    doc["schema"] = std::string("lapclique-bench-v1");
    doc["bench"] = std::string("bench_checkpoint");
    obs::json::Object inst;
    inst["family"] = std::string("random_flow_network");
    inst["n"] = n;
    inst["m"] = m;
    inst["max_cap"] = max_cap;
    inst["seed"] = static_cast<std::int64_t>(seed);
    inst["iteration_scale"] = opt.iteration_scale;
    doc["instance"] = obs::json::Value(std::move(inst));
    doc["cadence_sweep"] = obs::json::Value(std::move(cadence));
    doc["resume"] = obs::json::Value(std::move(resume_row));
    doc["warm_start"] = obs::json::Value(std::move(warm_row));
    std::ofstream out(json_path);
    out << obs::json::Value(std::move(doc)).dump_pretty() << "\n";
  }
  return 0;
}
