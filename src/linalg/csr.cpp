#include "linalg/csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/pool.hpp"

namespace lapclique::linalg {

namespace {
/// Rows per shard for row-parallel kernels.  Each row's inner loop runs
/// sequentially in column order, so sharding rows is bit-identical to the
/// sequential kernel; the grain only has to amortize dispatch.
constexpr std::int64_t kRowGrain = 512;
/// Slices per shard for the SELL kernels — kRowGrain rows' worth of slices,
/// keeping the shard geometry (a pure function of n) aligned with the old
/// row-sharded kernels.
constexpr std::int64_t kSliceGrain = kRowGrain / CsrMatrix::kSellSlice;
}  // namespace

void sort_triplets(std::span<Triplet> t) {
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
}

CsrMatrix CsrMatrix::from_triplets(int n, std::span<const Triplet> triplets) {
  if (n < 0) throw std::invalid_argument("CsrMatrix: negative size");
  std::vector<Triplet> t(triplets.begin(), triplets.end());
  for (const Triplet& x : t) {
    if (x.row < 0 || x.row >= n || x.col < 0 || x.col >= n) {
      throw std::out_of_range("CsrMatrix: triplet index out of range");
    }
  }
  sort_triplets(t);

  CsrMatrix m;
  m.n_ = n;
  m.rowptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t i = 0;
  for (int r = 0; r < n; ++r) {
    m.rowptr_[static_cast<std::size_t>(r)] = static_cast<int>(m.colidx_.size());
    while (i < t.size() && t[i].row == r) {
      const int c = t[i].col;
      double v = 0;
      while (i < t.size() && t[i].row == r && t[i].col == c) v += t[i++].value;
      if (v != 0.0) {
        m.colidx_.push_back(c);
        m.vals_.push_back(v);
      }
    }
  }
  m.rowptr_[static_cast<std::size_t>(n)] = static_cast<int>(m.colidx_.size());
  m.build_sell();
  return m;
}

void CsrMatrix::build_sell() {
  constexpr int C = kSellSlice;
  const std::int64_t slices = (static_cast<std::int64_t>(n_) + C - 1) / C;
  sell_ptr_.assign(static_cast<std::size_t>(slices) + 1, 0);
  for (std::int64_t s = 0; s < slices; ++s) {
    int width = 0;
    const int r0 = static_cast<int>(s) * C;
    const int r1 = std::min(n_, r0 + C);
    for (int r = r0; r < r1; ++r) {
      width = std::max(width, rowptr_[static_cast<std::size_t>(r) + 1] -
                                  rowptr_[static_cast<std::size_t>(r)]);
    }
    sell_ptr_[static_cast<std::size_t>(s) + 1] =
        sell_ptr_[static_cast<std::size_t>(s)] + static_cast<std::int64_t>(width) * C;
  }
  const auto total = static_cast<std::size_t>(sell_ptr_[static_cast<std::size_t>(slices)]);
  sell_cols_.assign(total, 0);
  sell_vals_.assign(total, 0.0);
  for (std::int64_t s = 0; s < slices; ++s) {
    const int r0 = static_cast<int>(s) * C;
    const int r1 = std::min(n_, r0 + C);
    const std::int64_t base = sell_ptr_[static_cast<std::size_t>(s)];
    for (int r = r0; r < r1; ++r) {
      const int lane = r - r0;
      const int kb = rowptr_[static_cast<std::size_t>(r)];
      const int ke = rowptr_[static_cast<std::size_t>(r) + 1];
      for (int k = kb; k < ke; ++k) {
        const auto slot =
            static_cast<std::size_t>(base + static_cast<std::int64_t>(k - kb) * C + lane);
        sell_cols_[slot] = colidx_[static_cast<std::size_t>(k)];
        sell_vals_[slot] = vals_[static_cast<std::size_t>(k)];
      }
    }
  }
}

Vec CsrMatrix::multiply(std::span<const double> x) const {
  Vec y(static_cast<std::size_t>(n_), 0.0);
  multiply_into(x, y);
  return y;
}

void CsrMatrix::multiply_into(std::span<const double> x, std::span<double> y) const {
  if (static_cast<int>(x.size()) != n_ || static_cast<int>(y.size()) != n_) {
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  }
  // SELL kernel: lanes of a slice advance in lockstep over entry index j;
  // lane l's accumulator sees row (slice*C+l)'s entries in ascending column
  // order — the exact per-row sequence of the scalar CSR loop, so the result
  // is bit-identical at every thread count.  Short lanes are guarded by
  // len[l]; padded slots never reach the arithmetic.
  constexpr int C = kSellSlice;
  const std::int64_t slices = (static_cast<std::int64_t>(n_) + C - 1) / C;
  exec::parallel_for(slices, kSliceGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) {
      const int r0 = static_cast<int>(s) * C;
      const int lanes = std::min(C, n_ - r0);
      const std::int64_t base = sell_ptr_[static_cast<std::size_t>(s)];
      const std::int64_t width = (sell_ptr_[static_cast<std::size_t>(s) + 1] - base) / C;
      double acc[C] = {};
      int len[C] = {};
      for (int l = 0; l < lanes; ++l) {
        len[l] = rowptr_[static_cast<std::size_t>(r0 + l) + 1] -
                 rowptr_[static_cast<std::size_t>(r0 + l)];
      }
      for (std::int64_t j = 0; j < width; ++j) {
        const auto slot = static_cast<std::size_t>(base + j * C);
        for (int l = 0; l < lanes; ++l) {
          if (j < len[l]) {
            acc[l] += sell_vals_[slot + static_cast<std::size_t>(l)] *
                      x[static_cast<std::size_t>(
                          sell_cols_[slot + static_cast<std::size_t>(l)])];
          }
        }
      }
      for (int l = 0; l < lanes; ++l) y[static_cast<std::size_t>(r0 + l)] = acc[l];
    }
  });
}

void CsrMatrix::multiply_block_axpy_into(double coef, std::span<const Vec> x,
                                         std::span<Vec> y) const {
  const std::size_t k = x.size();
  if (y.size() != k) {
    throw std::invalid_argument("CsrMatrix::multiply_block_axpy: column count mismatch");
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (static_cast<int>(x[c].size()) != n_ || static_cast<int>(y[c].size()) != n_) {
      throw std::invalid_argument("CsrMatrix::multiply_block_axpy: size mismatch");
    }
  }
  if (k == 0) return;
  // multiply_into's SELL walk, once per column: a slice's entries stay in
  // cache across its k column passes, and lane l's accumulator sees row
  // (slice*C+l)'s entries in ascending column order, exactly as
  // multiply_into does.  The row product s lands as y[c][r] += coef*s, the
  // same multiply-add a separate axpy pass performs on a stored A x[c] — so
  // column c is bitwise `axpy(coef, multiply(x[c]), y[c])`.
  constexpr int C = kSellSlice;
  const std::int64_t slices = (static_cast<std::int64_t>(n_) + C - 1) / C;
  exec::parallel_for(slices, kSliceGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) {
      const int r0 = static_cast<int>(s) * C;
      const int lanes = std::min(C, n_ - r0);
      const std::int64_t base = sell_ptr_[static_cast<std::size_t>(s)];
      const std::int64_t width = (sell_ptr_[static_cast<std::size_t>(s) + 1] - base) / C;
      int len[C] = {};
      for (int l = 0; l < lanes; ++l) {
        len[l] = rowptr_[static_cast<std::size_t>(r0 + l) + 1] -
                 rowptr_[static_cast<std::size_t>(r0 + l)];
      }
      for (std::size_t c = 0; c < k; ++c) {
        const double* xc = x[c].data();
        double acc[C] = {};
        for (std::int64_t j = 0; j < width; ++j) {
          const auto slot = static_cast<std::size_t>(base + j * C);
          for (int l = 0; l < lanes; ++l) {
            if (j < len[l]) {
              acc[l] += sell_vals_[slot + static_cast<std::size_t>(l)] *
                        xc[sell_cols_[slot + static_cast<std::size_t>(l)]];
            }
          }
        }
        double* yc = y[c].data();
        for (int l = 0; l < lanes; ++l) yc[r0 + l] += coef * acc[l];
      }
    }
  });
}

double CsrMatrix::quadratic_form(std::span<const double> x) const {
  if (static_cast<int>(x.size()) != n_) {
    throw std::invalid_argument("CsrMatrix::quadratic_form: size mismatch");
  }
  double s = 0;
  for (int r = 0; r < n_; ++r) {
    for (int k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      s += x[static_cast<std::size_t>(r)] * vals_[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(colidx_[static_cast<std::size_t>(k)])];
    }
  }
  return s;
}

double CsrMatrix::at(int r, int c) const {
  if (r < 0 || r >= n_ || c < 0 || c >= n_) {
    throw std::out_of_range("CsrMatrix::at: index out of range");
  }
  const auto begin = colidx_.begin() + rowptr_[static_cast<std::size_t>(r)];
  const auto end = colidx_.begin() + rowptr_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return vals_[static_cast<std::size_t>(it - colidx_.begin())];
}

std::vector<double> CsrMatrix::to_dense() const {
  std::vector<double> d(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 0.0);
  exec::parallel_for(n_, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      for (int k = rowptr_[static_cast<std::size_t>(r)];
           k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        d[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(colidx_[static_cast<std::size_t>(k)])] =
            vals_[static_cast<std::size_t>(k)];
      }
    }
  });
  return d;
}

CsrMatrix CsrMatrix::plus(const CsrMatrix& other) const {
  if (other.n_ != n_) throw std::invalid_argument("CsrMatrix::plus: size mismatch");
  std::vector<Triplet> t;
  t.reserve(vals_.size() + other.vals_.size());
  auto collect = [&t](const CsrMatrix& m, double coef) {
    for (int r = 0; r < m.n_; ++r) {
      for (int k = m.rowptr_[static_cast<std::size_t>(r)];
           k < m.rowptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        t.push_back(Triplet{r, m.colidx_[static_cast<std::size_t>(k)],
                            coef * m.vals_[static_cast<std::size_t>(k)]});
      }
    }
  };
  collect(*this, 1.0);
  collect(other, 1.0);
  return from_triplets(n_, t);
}

CsrMatrix CsrMatrix::scaled(double alpha) const {
  CsrMatrix m = *this;
  for (double& v : m.vals_) v *= alpha;
  // The sliced layout mirrors vals_ — scale it in place rather than
  // rebuilding (padding slots stay 0*alpha = ±0, never read anyway).
  for (double& v : m.sell_vals_) v *= alpha;
  return m;
}

}  // namespace lapclique::linalg
