// Electrical flows: the inner problem of both interior point methods.
// Given per-edge resistances r_e and a demand vector chi, solve the
// Laplacian system L(G) phi = chi where L uses conductances 1/r_e, then read
// off f_e = (phi_v - phi_u) / r_e for e = (u, v) (Algorithm 3, line 2-3).
//
// Every solve is an exact internal LDL^T solve (linalg::BackendLaplacianFactor).
// Its model cost is the round count of one full Theorem 1.1 solve
// (deterministic sparsifier + preconditioned Chebyshev) at the same topology
// and eps, measured once per run by calibrate_solve_rounds() and charged per
// solve by the charging potentials() overload.  DESIGN.md §3: the round
// complexity of a Theorem 1.1 solve depends on the topology and eps, not on
// the resistance values, so the charge is exact, not an estimate.
//
// A solver is built once per topology.  The constructor fixes the
// Laplacian's pattern, records for each of its entries which edges'
// conductances sum into it, in the order graph::laplacian's
// CsrMatrix::from_triplets would sum them, and runs the factor's pattern
// analysis.  refactor() turns new resistances on the same edges into new
// Laplacian values and a numeric refactor, bitwise what a fresh solver on
// those resistances computes.  The IPMs keep one solver while only the
// resistances change and build a new one when the topology does (max-flow
// Boosting).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cliquesim/network.hpp"
#include "linalg/backend.hpp"

namespace lapclique::flow {

struct ElectricalEdge {
  int u = -1;
  int v = -1;
  double resistance = 1.0;
};

class ElectricalSolver {
 public:
  /// Builds the conductance Laplacian for the given resistances and factors
  /// it with the kernel its pattern resolves to.  Throws std::invalid_argument
  /// or std::out_of_range, with graph::Graph's messages, for a negative n,
  /// an endpoint out of range, a self-loop, or a conductance 1/r that is not
  /// positive, and "ElectricalSolver: resistances must be positive" for
  /// r <= 0 (or NaN).
  ElectricalSolver(int n, std::vector<ElectricalEdge> edges);

  /// Refactors for new per-edge resistances (one per constructor edge, same
  /// order) on the same topology.  Rejects r <= 0 and r = +inf with the
  /// constructor's messages before changing anything.
  void refactor(std::span<const double> resistances);

  /// phi with L phi = chi (chi must sum to ~0).  Charges nothing.
  [[nodiscard]] linalg::Vec potentials(std::span<const double> chi) const;

  /// potentials(chi) as one model-visible solve on `net`: opens the
  /// "electrical_solve" span, counts it under "electrical_solves", and
  /// charges `rounds_per_solve` all-to-all rounds (each Theorem 1.1 round is
  /// a clique-wide broadcast) before solving.
  [[nodiscard]] linalg::Vec potentials(std::span<const double> chi,
                                       clique::Network& net,
                                       std::int64_t rounds_per_solve) const;

  /// Induced flow: f_e = (phi_v - phi_u) / r_e.
  [[nodiscard]] std::vector<double> induced_flow(std::span<const double> phi) const;

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const linalg::FactorStats& factor_stats() const {
    return factor_.stats();
  }

 private:
  /// The Laplacian's CSR values for conductances w, one per edge.
  [[nodiscard]] linalg::Vec laplacian_values(std::span<const double> w) const;

  int n_;
  std::vector<ElectricalEdge> edges_;
  /// Laplacian slot k sums terms_[slot_ptr_[k] .. slot_ptr_[k+1]) in order;
  /// a term is 2 * edge (diagonal, +w) or 2 * edge + 1 (off-diagonal, -w).
  std::vector<int> slot_ptr_;
  std::vector<int> terms_;
  linalg::BackendLaplacianFactor factor_;
};

/// Rounds one Theorem 1.1 solve charges at this topology and eps: builds one
/// solver::LaplacianSolver on the conductance graph, charged on a private
/// Network, and solves a unit demand from vertex 0 to vertex n-1.  Returns 0
/// when n < 2.
[[nodiscard]] std::int64_t calibrate_solve_rounds(
    int n, std::span<const ElectricalEdge> edges, double eps);

}  // namespace lapclique::flow
