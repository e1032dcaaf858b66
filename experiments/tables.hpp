// The tables of EXPERIMENTS.md, one function per table.
//
// Each function builds its instances from fixed seeds and runs them on
// explicitly configured networks: charged routing, set in code, so no
// LAPCLIQUE_* environment variable can move a cell.  Only the
// deterministic quantities are tabulated (model rounds and words, solve and
// path counts, sizes, and floats computed from them or from solver bits);
// host wall-clock time is lapbench's job (benchmark/).
#pragma once

#include "table.hpp"

namespace lapclique::experiments {

// E1 — Theorem 1.1: Laplacian solves in n^{o(1)} log(U/eps) rounds.
Table e1_eps();      ///< rounds of one solve vs eps
Table e1_n();        ///< Chebyshev rounds of one solve vs n
Table e1_routing();  ///< one n = 256 solve under each routing mode and backend
Table e1_u();        ///< rounds vs the weight range U
// E2 — Theorem 3.3: deterministic sparsifier size and quality.
Table e2_families();
Table e2_weights();
// E3 — Theorem 1.4: Eulerian orientation; A1 — its marking-rule ablation.
Table e3();
Table a1();
// E4 — Lemma 4.2: flow rounding.
Table e4_delta();
Table e4_value();
// E5 — Theorem 1.2: max flow and the Section 1.1 baselines; A3 — Boosting.
Table e5();
Table a3();
// E6 — Theorem 1.3: unit-capacity min-cost flow.
Table e6();
// E7 — Section 1 remark: deterministic vs randomized sparsifier.
Table e7();
// E8 — Corollary 2.3: energy-norm error and the Chebyshev iteration law.
Table e8();
// E9 — Section 1.1: (1+eps)-approximate electrical max flow.
Table e9_eps();
Table e9_m();
// E10 — Section 1.1: CONGEST vs congested clique.
Table e10();
// A2 — the sparsifier's conductance parameter phi.
Table a2();

/// Every table, in EXPERIMENTS.md order.
inline constexpr Table (*kAllTables[])() = {
    e1_eps, e1_n,   e1_routing, e1_u, e2_families, e2_weights, e3,
    a1,     e4_delta, e4_value, e5,   a3,          e6,         e7,
    e8,     e9_eps, e9_m,       e10,  a2};

}  // namespace lapclique::experiments
