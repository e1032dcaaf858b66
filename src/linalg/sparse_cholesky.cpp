#include "linalg/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lapclique::linalg {

std::vector<int> rcm_ordering(const CsrMatrix& a) {
  const int n = a.size();
  const auto rowptr = a.row_ptr();
  const auto colidx = a.col_idx();

  // Off-diagonal degree per vertex; the diagonal never influences the order.
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    int d = 0;
    for (int k = rowptr[static_cast<std::size_t>(v)];
         k < rowptr[static_cast<std::size_t>(v) + 1]; ++k) {
      if (colidx[static_cast<std::size_t>(k)] != v) ++d;
    }
    degree[static_cast<std::size_t>(v)] = d;
  }

  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<int> nbrs;

  // Per component: BFS from the minimum-degree vertex (ties → smallest id,
  // found by the ascending scan below), neighbors appended sorted by
  // (degree, id).  Components are discovered in ascending seed-id order, so
  // the whole ordering is a pure function of the pattern.
  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)] != 0) continue;
    // Find the minimum-degree unvisited vertex reachable from seed: first
    // collect the component with a throwaway DFS, then pick the start.
    std::vector<int> comp_vertices;
    {
      std::vector<int> stack{seed};
      visited[static_cast<std::size_t>(seed)] = 1;
      while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        comp_vertices.push_back(v);
        for (int k = rowptr[static_cast<std::size_t>(v)];
             k < rowptr[static_cast<std::size_t>(v) + 1]; ++k) {
          const int u = colidx[static_cast<std::size_t>(k)];
          if (u != v && visited[static_cast<std::size_t>(u)] == 0) {
            visited[static_cast<std::size_t>(u)] = 1;
            stack.push_back(u);
          }
        }
      }
    }
    int start = comp_vertices[0];
    for (int v : comp_vertices) {
      const auto dv = degree[static_cast<std::size_t>(v)];
      const auto ds = degree[static_cast<std::size_t>(start)];
      if (dv < ds || (dv == ds && v < start)) start = v;
    }
    // BFS from `start` over the component (re-using `visited` as "placed").
    for (int v : comp_vertices) visited[static_cast<std::size_t>(v)] = 0;
    std::vector<int> queue{start};
    visited[static_cast<std::size_t>(start)] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      order.push_back(v);
      nbrs.clear();
      for (int k = rowptr[static_cast<std::size_t>(v)];
           k < rowptr[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = colidx[static_cast<std::size_t>(k)];
        if (u != v && visited[static_cast<std::size_t>(u)] == 0) {
          visited[static_cast<std::size_t>(u)] = 1;
          nbrs.push_back(u);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](int x, int y) {
        const auto dx = degree[static_cast<std::size_t>(x)];
        const auto dy = degree[static_cast<std::size_t>(y)];
        return dx != dy ? dx < dy : x < y;
      });
      queue.insert(queue.end(), nbrs.begin(), nbrs.end());
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

SparseLdlt SparseLdlt::factor(const CsrMatrix& a, double min_pivot) {
  const int n = a.size();
  SparseLdlt f;
  f.n_ = n;
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // Column-wise dynamic storage of L's strictly-lower part.
  std::vector<std::vector<int>> lrow(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> lval(static_cast<std::size_t>(n));

  // Dense scatter workspace for the current column.
  std::vector<double> work(static_cast<std::size_t>(n), 0.0);
  std::vector<char> marked(static_cast<std::size_t>(n), 0);
  std::vector<int> touched;

  const auto rowptr = a.row_ptr();
  const auto colidx = a.col_idx();
  const auto avals = a.values();

  // next_in_col[j]: cursor into lrow[j] used for the left-looking update
  // pattern; cols_hitting[j]: columns k whose next unprocessed row is j.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> cols_hitting(static_cast<std::size_t>(n));

  for (int j = 0; j < n; ++j) {
    // Scatter A(j:n, j) (use row j of the symmetric CSR).
    touched.clear();
    double diag = 0.0;
    for (int k = rowptr[static_cast<std::size_t>(j)];
         k < rowptr[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = colidx[static_cast<std::size_t>(k)];
      if (i == j) {
        diag = avals[static_cast<std::size_t>(k)];
      } else if (i > j) {
        work[static_cast<std::size_t>(i)] = avals[static_cast<std::size_t>(k)];
        marked[static_cast<std::size_t>(i)] = 1;
        touched.push_back(i);
      }
    }

    // Left-looking update: for each earlier column c with L(j,c) != 0,
    // subtract L(j,c)*d(c)*L(i,c) from column j.
    for (int c : cols_hitting[static_cast<std::size_t>(j)]) {
      const std::size_t pos = cursor[static_cast<std::size_t>(c)];
      const double ljc = lval[static_cast<std::size_t>(c)][pos];
      const double mult = ljc * f.d_[static_cast<std::size_t>(c)];
      diag -= mult * ljc;
      const auto& rows = lrow[static_cast<std::size_t>(c)];
      const auto& vals = lval[static_cast<std::size_t>(c)];
      for (std::size_t p = pos + 1; p < rows.size(); ++p) {
        const int i = rows[p];
        if (marked[static_cast<std::size_t>(i)] == 0) {
          marked[static_cast<std::size_t>(i)] = 1;
          touched.push_back(i);
        }
        work[static_cast<std::size_t>(i)] -= mult * vals[p];
      }
      // Advance c's cursor to its next row and re-register.
      cursor[static_cast<std::size_t>(c)] = pos + 1;
      if (pos + 1 < rows.size()) {
        cols_hitting[static_cast<std::size_t>(rows[pos + 1])].push_back(c);
      }
    }
    cols_hitting[static_cast<std::size_t>(j)].clear();

    if (!(std::abs(diag) > min_pivot)) {
      throw std::runtime_error("SparseLdlt: pivot collapsed; matrix not SPD enough");
    }
    f.d_[static_cast<std::size_t>(j)] = diag;

    std::sort(touched.begin(), touched.end());
    auto& rows_j = lrow[static_cast<std::size_t>(j)];
    auto& vals_j = lval[static_cast<std::size_t>(j)];
    rows_j.reserve(touched.size());
    vals_j.reserve(touched.size());
    for (int i : touched) {
      const double v = work[static_cast<std::size_t>(i)] / diag;
      work[static_cast<std::size_t>(i)] = 0.0;
      marked[static_cast<std::size_t>(i)] = 0;
      if (v != 0.0) {
        rows_j.push_back(i);
        vals_j.push_back(v);
      }
    }
    if (!rows_j.empty()) {
      cursor[static_cast<std::size_t>(j)] = 0;
      cols_hitting[static_cast<std::size_t>(rows_j[0])].push_back(j);
    }
  }

  // Compress to column-compressed storage.
  f.colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t nnz = 0;
  for (int j = 0; j < n; ++j) nnz += lrow[static_cast<std::size_t>(j)].size();
  f.rowidx_.reserve(nnz);
  f.vals_.reserve(nnz);
  for (int j = 0; j < n; ++j) {
    f.colptr_[static_cast<std::size_t>(j)] = static_cast<int>(f.rowidx_.size());
    f.rowidx_.insert(f.rowidx_.end(), lrow[static_cast<std::size_t>(j)].begin(),
                     lrow[static_cast<std::size_t>(j)].end());
    f.vals_.insert(f.vals_.end(), lval[static_cast<std::size_t>(j)].begin(),
                   lval[static_cast<std::size_t>(j)].end());
  }
  f.colptr_[static_cast<std::size_t>(n)] = static_cast<int>(f.rowidx_.size());
  return f;
}

std::int64_t SparseLdlt::fill_nnz() const {
  return static_cast<std::int64_t>(vals_.size()) + n_;
}

Vec SparseLdlt::solve(std::span<const double> b) const {
  if (static_cast<int>(b.size()) != n_) {
    throw std::invalid_argument("SparseLdlt::solve: size mismatch");
  }
  Vec x(b.begin(), b.end());
  // Forward: L y = b (column-oriented).
  for (int j = 0; j < n_; ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    for (int k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      x[static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(k)])] -=
          vals_[static_cast<std::size_t>(k)] * xj;
    }
  }
  for (int j = 0; j < n_; ++j) x[static_cast<std::size_t>(j)] /= d_[static_cast<std::size_t>(j)];
  // Backward: L^T x = y.
  for (int j = n_ - 1; j >= 0; --j) {
    double s = x[static_cast<std::size_t>(j)];
    for (int k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      s -= vals_[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(k)])];
    }
    x[static_cast<std::size_t>(j)] = s;
  }
  return x;
}

void SparseLdlt::solve_block_inplace(std::span<Vec> xs) const {
  const std::size_t ncols = xs.size();
  if (ncols == 0) return;
  if (ncols == 1) {
    Vec r = solve(xs[0]);
    xs[0] = std::move(r);
    return;
  }
  for (const Vec& col : xs) {
    if (static_cast<int>(col.size()) != n_) {
      throw std::invalid_argument("SparseLdlt::solve_block: size mismatch");
    }
  }
  std::vector<double*> xv(ncols);
  for (std::size_t c = 0; c < ncols; ++c) xv[c] = xs[c].data();

  // The schedule below is solve()'s column walk verbatim; every scatter and
  // gather gains an inner loop over RHS columns, so the factor column is
  // read once per step while each column's reduction order (ascending k)
  // is unchanged from the scalar kernel.

  // Forward: L y = b (column-oriented).
  for (int j = 0; j < n_; ++j) {
    for (int k = colptr_[static_cast<std::size_t>(j)];
         k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      const auto i = static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(k)]);
      const double v = vals_[static_cast<std::size_t>(k)];
      for (std::size_t c = 0; c < ncols; ++c) {
        xv[c][i] -= v * xv[c][static_cast<std::size_t>(j)];
      }
    }
  }
  for (int j = 0; j < n_; ++j) {
    const double dj = d_[static_cast<std::size_t>(j)];
    for (std::size_t c = 0; c < ncols; ++c) xv[c][static_cast<std::size_t>(j)] /= dj;
  }
  // Backward: L^T x = y.
  for (int j = n_ - 1; j >= 0; --j) {
    for (std::size_t c = 0; c < ncols; ++c) {
      double s = xv[c][static_cast<std::size_t>(j)];
      for (int k = colptr_[static_cast<std::size_t>(j)];
           k < colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
        s -= vals_[static_cast<std::size_t>(k)] *
             xv[c][static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(k)])];
      }
      xv[c][static_cast<std::size_t>(j)] = s;
    }
  }
}

}  // namespace lapclique::linalg
