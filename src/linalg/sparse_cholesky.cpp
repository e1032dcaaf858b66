#include "linalg/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lapclique::linalg {

std::vector<int> rcm_ordering(const CsrMatrix& a) {
  return rcm_ordering(a.size(), a.row_ptr(), a.col_idx());
}

std::vector<int> rcm_ordering(int n, std::span<const int> rowptr,
                              std::span<const int> colidx) {

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

SparseLdlt SparseLdlt::analyze(int n, std::span<const int> row_ptr,
                               std::span<const int> col_idx) {
  if (n < 0 || row_ptr.size() != static_cast<std::size_t>(n) + 1 ||
      static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(n)]) != col_idx.size()) {
    throw std::invalid_argument("SparseLdlt::analyze: malformed CSR pattern");
  }
  const auto nu = static_cast<std::size_t>(n);
  SparseLdlt f;
  f.n_ = n;
  f.a_rowptr_.assign(row_ptr.begin(), row_ptr.end());
  f.a_colidx_.assign(col_idx.begin(), col_idx.end());

  // Elimination tree (Liu): row k's entries i < k climb from i towards the
  // root, compressing each path onto k as they go.
  std::vector<int> parent(nu, -1);
  std::vector<int> ancestor(nu, -1);
  for (int k = 0; k < n; ++k) {
    for (int p = row_ptr[static_cast<std::size_t>(k)];
         p < row_ptr[static_cast<std::size_t>(k) + 1]; ++p) {
      for (int i = col_idx[static_cast<std::size_t>(p)]; i != -1 && i < k;) {
        const int up = ancestor[static_cast<std::size_t>(i)];
        ancestor[static_cast<std::size_t>(i)] = k;
        if (up == -1) parent[static_cast<std::size_t>(i)] = k;
        i = up;
      }
    }
  }

  // Row k of L is the row subtree of k: every etree ancestor j < k of an
  // entry i < k of A's row k.  The walk runs twice — first to size each
  // column, then to append k to the columns it reaches.  k ascends, so
  // every column's rows come out sorted.
  std::vector<int> flag(nu, -1);
  const auto walk_row_subtree = [&](int k, auto&& visit) {
    flag[static_cast<std::size_t>(k)] = k;
    for (int p = row_ptr[static_cast<std::size_t>(k)];
         p < row_ptr[static_cast<std::size_t>(k) + 1]; ++p) {
      for (int j = col_idx[static_cast<std::size_t>(p)];
           j < k && flag[static_cast<std::size_t>(j)] != k;
           j = parent[static_cast<std::size_t>(j)]) {
        flag[static_cast<std::size_t>(j)] = k;
        visit(j);
      }
    }
  };
  f.colptr_.assign(nu + 1, 0);
  for (int k = 0; k < n; ++k) {
    walk_row_subtree(k, [&](int j) { ++f.colptr_[static_cast<std::size_t>(j) + 1]; });
  }
  for (std::size_t j = 0; j < nu; ++j) f.colptr_[j + 1] += f.colptr_[j];
  f.rowidx_.resize(static_cast<std::size_t>(f.colptr_[nu]));
  std::vector<int> next(f.colptr_.begin(), f.colptr_.end() - 1);
  std::fill(flag.begin(), flag.end(), -1);
  for (int k = 0; k < n; ++k) {
    walk_row_subtree(k, [&](int j) {
      f.rowidx_[static_cast<std::size_t>(next[static_cast<std::size_t>(j)]++)] = k;
    });
  }
  f.vals_.assign(f.rowidx_.size(), 0.0);
  f.d_.assign(nu, 0.0);
  return f;
}

void SparseLdlt::refactor(std::span<const double> values, double min_pivot) {
  if (values.size() != a_colidx_.size()) {
    throw std::invalid_argument("SparseLdlt::refactor: value count does not match the pattern");
  }
  const auto nu = static_cast<std::size_t>(n_);
  // Dense scatter workspace for the current column; every row it holds is
  // in that column's pattern, so the gather below leaves it zeroed.
  std::vector<double> work(nu, 0.0);
  // Left-looking update schedule as O(n) FIFO lists: column c waits in the
  // list of the row of its next unprocessed entry (cursor[c]), and columns
  // join a list at its tail, so each row meets its updating columns in the
  // order they became due.
  std::vector<int> head(nu, -1);
  std::vector<int> tail(nu, -1);
  std::vector<int> next(nu, -1);
  std::vector<int> cursor(nu, 0);
  const auto enqueue = [&](int row, int c) {
    next[static_cast<std::size_t>(c)] = -1;
    if (tail[static_cast<std::size_t>(row)] == -1) {
      head[static_cast<std::size_t>(row)] = c;
    } else {
      next[static_cast<std::size_t>(tail[static_cast<std::size_t>(row)])] = c;
    }
    tail[static_cast<std::size_t>(row)] = c;
  };

  for (int j = 0; j < n_; ++j) {
    // Scatter A(j:n, j) (row j of the symmetric CSR).
    double diag = 0.0;
    for (int k = a_rowptr_[static_cast<std::size_t>(j)];
         k < a_rowptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = a_colidx_[static_cast<std::size_t>(k)];
      if (i == j) {
        diag = values[static_cast<std::size_t>(k)];
      } else if (i > j) {
        work[static_cast<std::size_t>(i)] = values[static_cast<std::size_t>(k)];
      }
    }

    // Left-looking update: for each earlier column c with L(j,c) != 0,
    // subtract L(j,c)*d(c)*L(i,c) from column j.
    for (int c = head[static_cast<std::size_t>(j)]; c != -1;) {
      const int after = next[static_cast<std::size_t>(c)];
      const int pos = cursor[static_cast<std::size_t>(c)];
      const int end = colptr_[static_cast<std::size_t>(c) + 1];
      const double ljc = vals_[static_cast<std::size_t>(pos)];
      const double mult = ljc * d_[static_cast<std::size_t>(c)];
      diag -= mult * ljc;
      for (int p = pos + 1; p < end; ++p) {
        work[static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(p)])] -=
            mult * vals_[static_cast<std::size_t>(p)];
      }
      // Advance c's cursor to its next row and re-register.
      cursor[static_cast<std::size_t>(c)] = pos + 1;
      if (pos + 1 < end) enqueue(rowidx_[static_cast<std::size_t>(pos) + 1], c);
      c = after;
    }

    if (!(std::abs(diag) > min_pivot)) {
      throw std::runtime_error("SparseLdlt: pivot collapsed; matrix not SPD enough");
    }
    d_[static_cast<std::size_t>(j)] = diag;

    const int begin = colptr_[static_cast<std::size_t>(j)];
    const int end = colptr_[static_cast<std::size_t>(j) + 1];
    for (int p = begin; p < end; ++p) {
      const auto i = static_cast<std::size_t>(rowidx_[static_cast<std::size_t>(p)]);
      vals_[static_cast<std::size_t>(p)] = work[i] / diag;
      work[i] = 0.0;
    }
    if (begin < end) {
      cursor[static_cast<std::size_t>(j)] = begin;
      enqueue(rowidx_[static_cast<std::size_t>(begin)], j);
    }
  }
}

SparseLdlt SparseLdlt::factor(const CsrMatrix& a, double min_pivot) {
  SparseLdlt f = analyze(a.size(), a.row_ptr(), a.col_idx());
  f.refactor(a.values(), min_pivot);
  return f;
}

std::int64_t SparseLdlt::fill_nnz() const {
  return static_cast<std::int64_t>(vals_.size()) + n_;
}

// The triangular solves start on a 64-byte boundary.  lap_solve_sparse runs
// solve() once per Chebyshev step, and with its bytes unchanged an edit
// elsewhere in this file moved its entry from address mod 64 = 0 to 32,
// which cost that workload 4-19% in op_ref_p50 over 12 interleaved seeds
// (4-CPU host, Release, GCC 12); pinning the alignment restored parity.
[[gnu::aligned(64)]] Vec SparseLdlt::solve(std::span<const double> b) const {
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

[[gnu::aligned(64)]] void SparseLdlt::solve_block_inplace(std::span<Vec> xs) const {
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
