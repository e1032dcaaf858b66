#include "linalg/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace lapclique::linalg {

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
  return m;
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
  const int* rp = rowptr_.data();
  const int* ci = colidx_.data();
  const double* v = vals_.data();
  for (int r = 0; r < n_; ++r) {
    double s = 0.0;
    for (int k = rp[r]; k < rp[r + 1]; ++k) {
      s += v[k] * x[static_cast<std::size_t>(ci[k])];
    }
    y[static_cast<std::size_t>(r)] = s;
  }
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
  // multiply_into's row walk, with a row's entries serving every column
  // while in cache.  The row product s lands as y[c][r] += coef*s, the same
  // multiply-add a separate axpy pass performs on a stored A x[c] — so
  // column c is bitwise `axpy(coef, multiply(x[c]), y[c])`.
  const int* rp = rowptr_.data();
  const int* ci = colidx_.data();
  const double* v = vals_.data();
  for (int r = 0; r < n_; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const double* xc = x[c].data();
      double s = 0.0;
      for (int e = rp[r]; e < rp[r + 1]; ++e) s += v[e] * xc[ci[e]];
      y[c][static_cast<std::size_t>(r)] += coef * s;
    }
  }
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
  for (int r = 0; r < n_; ++r) {
    for (int k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      d[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
        static_cast<std::size_t>(colidx_[static_cast<std::size_t>(k)])] =
          vals_[static_cast<std::size_t>(k)];
    }
  }
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
  return m;
}

}  // namespace lapclique::linalg
