#include "flow/electrical.hpp"

#include <stdexcept>

#include "graph/graph.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::flow {

namespace {

constexpr const char* kNonPositiveResistance =
    "ElectricalSolver: resistances must be positive";

/// 1/r with the checks, and messages, that building the conductance
/// graph::Graph applies: r must be positive, and so must 1/r (it is 0 for
/// r = +inf).
double conductance(double r) {
  if (!(r > 0)) throw std::invalid_argument(kNonPositiveResistance);
  const double w = 1.0 / r;
  if (!(w > 0)) throw std::invalid_argument("Graph: weight must be positive");
  return w;
}

graph::Graph conductance_graph(int n, std::span<const ElectricalEdge> edges) {
  graph::Graph g(n);
  for (const ElectricalEdge& e : edges) {
    if (!(e.resistance > 0)) throw std::invalid_argument(kNonPositiveResistance);
    g.add_edge(e.u, e.v, 1.0 / e.resistance);
  }
  return g;
}

}  // namespace

ElectricalSolver::ElectricalSolver(int n, std::vector<ElectricalEdge> edges)
    : n_(n), edges_(std::move(edges)) {
  // The checks of graph::Graph(n) and add_edge, edge by edge in its order,
  // without building the graph.
  if (n < 0) throw std::invalid_argument("Graph: n must be non-negative");
  std::vector<double> w;
  w.reserve(edges_.size());
  for (const ElectricalEdge& e : edges_) {
    if (!(e.resistance > 0)) throw std::invalid_argument(kNonPositiveResistance);
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
      throw std::out_of_range("Graph: vertex out of range");
    }
    if (e.u == e.v) throw std::invalid_argument("Graph: self-loops not allowed");
    w.push_back(conductance(e.resistance));
  }

  // graph::laplacian's triplets, each tagged in `value` with its edge and
  // whether it is off-diagonal, sorted as CsrMatrix::from_triplets sorts
  // them: a slot's run of tags is the order that sums its conductances.
  std::vector<linalg::Triplet> t;
  t.reserve(edges_.size() * 4);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const ElectricalEdge& e = edges_[i];
    const auto diag = static_cast<double>(2 * i);
    const auto off = static_cast<double>(2 * i + 1);
    t.push_back({e.u, e.u, diag});
    t.push_back({e.v, e.v, diag});
    t.push_back({e.u, e.v, off});
    t.push_back({e.v, e.u, off});
  }
  linalg::sort_triplets(t);
  std::vector<int> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> col_idx;
  terms_.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == 0 || t[i].row != t[i - 1].row || t[i].col != t[i - 1].col) {
      slot_ptr_.push_back(static_cast<int>(terms_.size()));
      ++row_ptr[static_cast<std::size_t>(t[i].row) + 1];
      col_idx.push_back(t[i].col);
    }
    terms_.push_back(static_cast<int>(t[i].value));
  }
  slot_ptr_.push_back(static_cast<int>(terms_.size()));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }

  factor_ = linalg::BackendLaplacianFactor::analyze(n, row_ptr, col_idx);
  factor_.refactor(laplacian_values(w));
}

linalg::Vec ElectricalSolver::laplacian_values(std::span<const double> w) const {
  // Summed from 0 in tag order, exactly as from_triplets sums the slot.  All
  // conductances are positive and there are no self-loops, so no slot sums
  // to zero and the pattern never loses an entry.
  linalg::Vec values(slot_ptr_.size() - 1);
  for (std::size_t k = 0; k < values.size(); ++k) {
    double v = 0;
    for (int p = slot_ptr_[k]; p < slot_ptr_[k + 1]; ++p) {
      const int tag = terms_[static_cast<std::size_t>(p)];
      const double g = w[static_cast<std::size_t>(tag / 2)];
      v += (tag % 2 == 0) ? g : -g;
    }
    values[k] = v;
  }
  return values;
}

void ElectricalSolver::refactor(std::span<const double> resistances) {
  if (resistances.size() != edges_.size()) {
    throw std::invalid_argument("ElectricalSolver::refactor: one resistance per edge");
  }
  std::vector<double> w(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) w[i] = conductance(resistances[i]);
  for (std::size_t i = 0; i < edges_.size(); ++i) edges_[i].resistance = resistances[i];
  factor_.refactor(laplacian_values(w));
}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi) const {
  if (static_cast<int>(chi.size()) != n_) {
    throw std::invalid_argument("ElectricalSolver::potentials: size mismatch");
  }
  return factor_.solve(chi);
}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi,
                                         clique::Network& net,
                                         std::int64_t rounds_per_solve) const {
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "electrical_solve");
  obs::count(net.tracer(), "electrical_solves");
  net.charge_all_to_all(rounds_per_solve);
  return potentials(chi);
}

std::vector<double> ElectricalSolver::induced_flow(std::span<const double> phi) const {
  std::vector<double> f(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const ElectricalEdge& e = edges_[i];
    f[i] = (phi[static_cast<std::size_t>(e.v)] - phi[static_cast<std::size_t>(e.u)]) /
           e.resistance;
  }
  return f;
}

std::int64_t calibrate_solve_rounds(int n, std::span<const ElectricalEdge> edges,
                                    double eps) {
  if (n < 2) return 0;
  clique::Network net(n);
  const solver::LaplacianSolver s(conductance_graph(n, edges), {}, &net);
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[0] = -1.0;
  chi[static_cast<std::size_t>(n - 1)] = 1.0;
  (void)s.solve(chi, eps, nullptr, &net);
  return net.rounds();
}

}  // namespace lapclique::flow
