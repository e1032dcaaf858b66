// lapclique::Runtime — the execution context every public entry point
// accepts: worker threads, trace sink, fault plan, routing mode and
// checkpointing.  One value describes a run completely:
//
//   lapclique::Runtime rt;
//   rt.threads = 8;
//   rt.trace = &my_ledger;
//   auto rep = lapclique::solve_laplacian(g, b, 1e-8, {}, rt);
//
// Every API entry point's Runtime parameter defaults to default_runtime(),
// a default-constructed Runtime.  Determinism note: the thread count never
// affects results — see exec/pool.hpp and docs/PERFORMANCE.md.
#pragma once

#include <string>

#include "cliquesim/network.hpp"
#include "fault/fault_plan.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique {

struct Runtime {
  /// Worker threads for the dense LDL^T's row splits (the only sharded
  /// kernel, at n >= 257); 0 resolves to exec::default_threads() (the
  /// LAPCLIQUE_THREADS env var, else 1).
  int threads = 0;
  /// Round ledger observing every network op; nullptr = tracing off.
  obs::RoundLedger* trace = nullptr;
  /// Fault plan driving the recovery drills; nullptr = faults off.
  fault::FaultPlan* faults = nullptr;
  /// How the network realizes and charges communication (charged / executed
  /// unicast, or the Broadcast Congested Clique).  Defaults to the
  /// LAPCLIQUE_ROUTING environment variable, else kCharged.
  clique::RoutingMode routing_mode = clique::default_routing_mode();
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
};

/// The default-constructed runtime every API entry point defaults to.
[[nodiscard]] const Runtime& default_runtime();

/// Build an n-node Network configured by `rt` (tracer, fault plan, routing
/// mode).  n is clamped to >= 2 as the facades always did.
[[nodiscard]] clique::Network make_network(int n,
                                           const Runtime& rt = default_runtime());

/// JSON object describing the resolved runtime config — the CLI embeds this
/// under the "runtime" key of --trace / --fault-report output.
[[nodiscard]] obs::json::Value runtime_to_json(const Runtime& rt = default_runtime());

}  // namespace lapclique
