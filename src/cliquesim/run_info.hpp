// lapclique::RunInfo — the shared congested-clique accounting block that
// every public report struct carries.
//
// Before this type, each entry point invented its own flat fields (`rounds`
// here, `rounds` + `phases` there, `used_fallback` on the IPMs only), so the
// CLI and benches had per-report formatting code.  Now every report exposes
// the same `run` member and callers format results uniformly:
//
//   rep.run.rounds         — charged model rounds (the theorems' quantity)
//   rep.run.words          — total words moved
//   rep.run.phases         — per-phase round breakdown
//   rep.run.used_fallback  — the guard-rail baseline produced the answer
//   rep.run.fallback_reason
#pragma once

#include <cstdint>
#include <string>

#include "cliquesim/network.hpp"

namespace lapclique {

struct RunInfo {
  std::int64_t rounds = 0;  ///< charged model rounds (Theorem 1.1-1.4 bound this)
  std::int64_t words = 0;   ///< total words moved
  clique::PhaseLedger phases;  ///< per-phase round breakdown
  /// A guard rail degraded this run to an exact baseline (the answer is
  /// still correct; the round count includes the fallback's gather).
  bool used_fallback = false;
  std::string fallback_reason;
  /// Numerics backend that produced this run's Laplacian factorizations
  /// ("dense" / "sparse"; empty when the run factored nothing).  Set by the
  /// solver/flow layers, not by capture() — backend choice is numerics
  /// state, invisible to the network.  No charge reads it.  Rounds that
  /// depend on solution bits (min-cost flow rounding starts from the IPM's
  /// fractional flow) follow the kernel's bits, but the kernel is a
  /// function of the instance, so every run of one instance charges the
  /// same rounds (docs/PERFORMANCE.md, "Why the choice is safe to make per
  /// instance").
  std::string numerics;
  /// Nonzeros in the preconditioner factor (diagonal included); 0 when the
  /// run factored nothing.
  std::int64_t factor_fill = 0;

  /// Snapshot the network's accounting.  Reports that measure a sub-run on a
  /// shared network pass the baseline counts observed before the run; the
  /// phase ledger is always the network's full snapshot.
  void capture(const clique::Network& net, std::int64_t rounds_base = 0,
               std::int64_t words_base = 0) {
    rounds = net.rounds() - rounds_base;
    words = net.words_sent() - words_base;
    phases = net.ledger();
  }
};

}  // namespace lapclique
