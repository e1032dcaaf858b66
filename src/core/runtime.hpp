// lapclique::Runtime — the execution context every public entry point
// accepts: trace sink, fault plan, routing mode and checkpointing.  One
// value describes what a run charges and records:
//
//   lapclique::Runtime rt;
//   rt.trace = &my_ledger;
//   rt.routing_mode = clique::RoutingMode::kBroadcast;
//   auto rep = lapclique::solve_laplacian(g, b, 1e-8, {}, rt);
//
// Every API entry point's Runtime parameter defaults to default_runtime(),
// a default-constructed Runtime.  Every run computes on the calling thread
// (docs/PERFORMANCE.md).
#pragma once

#include <string>

#include "cliquesim/network.hpp"
#include "fault/fault_plan.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique {

struct Runtime {
  /// Round ledger observing every network op; nullptr = tracing off.
  obs::RoundLedger* trace = nullptr;
  /// Fault plan driving the recovery drills; nullptr = faults off.
  fault::FaultPlan* faults = nullptr;
  /// How the network realizes and charges communication (charged / executed
  /// unicast, or the Broadcast Congested Clique).
  clique::RoutingMode routing_mode = clique::RoutingMode::kCharged;
  /// When non-empty, the flow IPM entry points attach a ckpt::CheckpointWriter
  /// that atomically commits a resumable snapshot to this path at every
  /// `checkpoint_every`-th batch boundary (see docs/CHECKPOINT.md).
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 1;
  /// Resume from `checkpoint_path` instead of starting fresh: the run
  /// continues bit-identically from the checkpointed batch (outputs, ledgers,
  /// and trace JSON equal to an uninterrupted run's).
  bool resume = false;
};

/// The default-constructed runtime every API entry point defaults to.
[[nodiscard]] const Runtime& default_runtime();

/// Build an n-node Network configured by `rt` (tracer, fault plan, routing
/// mode).  n is clamped to >= 2 as the facades always did.
[[nodiscard]] clique::Network make_network(int n,
                                           const Runtime& rt = default_runtime());

/// JSON object describing the runtime config — the CLI embeds this under
/// the "runtime" key of --trace / --fault-report output.
[[nodiscard]] obs::json::Value runtime_to_json(const Runtime& rt = default_runtime());

}  // namespace lapclique
