// lapclique::Runtime — the execution context every public entry point
// accepts: worker threads, trace sink, fault plan, and routing options.
//
// Threads, tracing, and fault injection used to be configured through three
// unrelated globals (exec::set_threads, obs::set_default_ledger,
// fault::set_default_plan); a Runtime carries them together so one value
// describes a run completely:
//
//   lapclique::Runtime rt;
//   rt.threads = 8;
//   rt.trace = &my_ledger;
//   auto rep = lapclique::solve_laplacian(g, b, 1e-8, {}, rt);
//
// Every field has a "resolve from the process defaults" null state, and
// every API entry point's Runtime parameter defaults to default_runtime().
// Determinism note: the thread count never affects results — see
// exec/pool.hpp and docs/PERFORMANCE.md.
#pragma once

#include <string>

#include "cliquesim/network.hpp"
#include "fault/fault_plan.hpp"
#include "linalg/backend.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique {

struct Runtime {
  /// Worker threads for the dense LDL^T's row splits (the only sharded
  /// kernel, at n >= 257); 0 resolves to exec::default_threads() (the
  /// LAPCLIQUE_THREADS env var, else 1).
  int threads = 0;
  /// Round ledger observing every network op; nullptr resolves to
  /// obs::default_ledger() (which may itself be null = tracing off).
  obs::RoundLedger* trace = nullptr;
  /// Fault plan driving the recovery drills; nullptr resolves to
  /// fault::default_plan() (which may itself be null = faults off).
  fault::FaultPlan* faults = nullptr;
  /// How the network realizes and charges communication (charged / executed
  /// unicast, or the Broadcast Congested Clique).  Defaults to the
  /// LAPCLIQUE_ROUTING environment variable, else kCharged.
  clique::RoutingMode routing_mode = clique::default_routing_mode();
  /// Numerics backend for every Laplacian factorization in the run
  /// (preconditioner, exact fallback, electrical solvers): dense LDL^T,
  /// RCM-ordered sparse LDL^T, or kAuto resolved per instance by
  /// linalg::resolve_backend.  Defaults to the LAPCLIQUE_NUMERICS
  /// environment variable, else kAuto.  The facades copy this into solver
  /// options whose own backend field is kAuto, so per-call options win only
  /// when they hard-pick a backend (docs/PERFORMANCE.md, "Numerics backends").
  linalg::Backend numerics = linalg::default_backend();
  /// When non-empty, the flow IPM entry points attach a ckpt::CheckpointWriter
  /// that atomically commits a resumable snapshot to this path at every
  /// `checkpoint_every`-th batch boundary (see docs/CHECKPOINT.md).
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 1;
  /// Resume from `checkpoint_path` instead of starting fresh: the run
  /// continues bit-identically from the checkpointed batch (outputs, ledgers,
  /// and trace JSON equal to an uninterrupted run's).
  bool resume = false;

  [[nodiscard]] int resolved_threads() const;
  [[nodiscard]] obs::RoundLedger* resolved_trace() const;
  [[nodiscard]] fault::FaultPlan* resolved_faults() const;
};

/// The process-wide runtime every API entry point defaults to.
[[nodiscard]] const Runtime& default_runtime();
void set_default_runtime(const Runtime& rt);

/// Build an n-node Network configured by `rt` (tracer, fault plan, routing
/// mode).  n is clamped to >= 2 as the facades always did.
[[nodiscard]] clique::Network make_network(int n,
                                           const Runtime& rt = default_runtime());

/// JSON object describing the resolved runtime config — the CLI embeds this
/// under the "runtime" key of --trace / --fault-report output.
[[nodiscard]] obs::json::Value runtime_to_json(const Runtime& rt = default_runtime());

}  // namespace lapclique
