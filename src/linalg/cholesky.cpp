#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lapclique::linalg {

namespace {

/// Column-block width for the blocked triangular solves.  The backward
/// block walk fixes each row's accumulation order, so this constant is part
/// of the solve's bits.
constexpr std::int64_t kSolveBlock = 128;

bool negative_zero(double v) { return v == 0.0 && std::signbit(v); }

/// One term of column j: column k of L, scaled by L(j,k) and d(k).
struct Multiplier {
  const double* col;
  double ljk;
  double dk;
};

/// col[i] -= (L(i,k) * L(j,k)) * d(k) for the multipliers in order (k
/// ascending) and rows i in [i0, i1).  Four k share one pass over the rows;
/// each row still meets them one subtraction at a time, in order.
void absorb_columns(double* col, std::span<const Multiplier> mul, std::size_t i0,
                    std::size_t i1) {
  std::size_t t = 0;
  for (; t + 4 <= mul.size(); t += 4) {
    // Locals, so the compiler need not reload them after each store to col.
    const double* c0 = mul[t].col;
    const double* c1 = mul[t + 1].col;
    const double* c2 = mul[t + 2].col;
    const double* c3 = mul[t + 3].col;
    const double l0 = mul[t].ljk, l1 = mul[t + 1].ljk, l2 = mul[t + 2].ljk,
                 l3 = mul[t + 3].ljk;
    const double d0 = mul[t].dk, d1 = mul[t + 1].dk, d2 = mul[t + 2].dk,
                 d3 = mul[t + 3].dk;
    for (std::size_t i = i0; i < i1; ++i) {
      double acc = col[i];
      acc -= c0[i] * l0 * d0;
      acc -= c1[i] * l1 * d1;
      acc -= c2[i] * l2 * d2;
      acc -= c3[i] * l3 * d3;
      col[i] = acc;
    }
  }
  for (; t < mul.size(); ++t) {
    const double* c0 = mul[t].col;
    const double l0 = mul[t].ljk;
    const double d0 = mul[t].dk;
    for (std::size_t i = i0; i < i1; ++i) col[i] -= c0[i] * l0 * d0;
  }
}

/// x[i] -= L(i,k) * x[k] for columns k in [k0, k1) ascending and rows i in
/// [i0, i1), i0 >= k1: the final x[k0..k1) fan out down their columns.
void forward_columns(double* xs, const double* lt, std::size_t n, std::size_t k0,
                     std::size_t k1, std::size_t i0, std::size_t i1) {
  std::size_t k = k0;
  for (; k + 4 <= k1; k += 4) {
    const double* c0 = lt + k * n;
    const double* c1 = c0 + n;
    const double* c2 = c1 + n;
    const double* c3 = c2 + n;
    const double x0 = xs[k], x1 = xs[k + 1], x2 = xs[k + 2], x3 = xs[k + 3];
    for (std::size_t i = i0; i < i1; ++i) {
      double s = xs[i];
      s -= c0[i] * x0;
      s -= c1[i] * x1;
      s -= c2[i] * x2;
      s -= c3[i] * x3;
      xs[i] = s;
    }
  }
  for (; k < k1; ++k) {
    const double* c0 = lt + k * n;
    const double x0 = xs[k];
    for (std::size_t i = i0; i < i1; ++i) xs[i] -= c0[i] * x0;
  }
}

}  // namespace

DenseLdlt DenseLdlt::factor(int n, std::span<const double> dense, double min_pivot) {
  if (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) != dense.size()) {
    throw std::invalid_argument("DenseLdlt: size mismatch");
  }
  DenseLdlt f;
  f.n_ = n;
  const auto nn = static_cast<std::size_t>(n);
  f.lt_.assign(nn * nn, 0.0);
  f.d_.assign(nn, 0.0);
  const double* a = dense.data();
  double* lt = f.lt_.data();
  double* d = f.d_.data();

  std::vector<Multiplier> mul;
  mul.reserve(nn);
  bool finite = true;  // every L and d entry computed so far is finite

  // Left-looking LDL^T, one column of L at a time.
  for (std::size_t j = 0; j < nn; ++j) {
    double* col = lt + j * nn;
    double dj = a[j * nn + j];
    bool skip = finite && !negative_zero(dj);
    for (std::size_t i = j + 1; i < nn; ++i) {
      col[i] = a[i * nn + j];
      if (negative_zero(col[i])) skip = false;
    }

    mul.clear();
    for (std::size_t k = 0; k < j; ++k) {
      const double ljk = lt[k * nn + j];
      if (skip && ljk == 0.0) continue;
      dj -= ljk * ljk * d[k];
      mul.push_back({lt + k * nn, ljk, d[k]});
    }
    if (!(std::abs(dj) > min_pivot)) {
      throw PivotCollapse("DenseLdlt: pivot collapsed; matrix not SPD enough");
    }
    d[j] = dj;
    absorb_columns(col, mul, j + 1, nn);
    for (std::size_t i = j + 1; i < nn; ++i) col[i] /= dj;
    finite = finite && std::isfinite(dj) &&
             std::all_of(col + j + 1, col + nn,
                         [](double v) { return std::isfinite(v); });
  }
  return f;
}

void DenseLdlt::solve_inplace(std::span<double> x) const {
  if (static_cast<int>(x.size()) != n_) {
    throw std::invalid_argument("DenseLdlt::solve: size mismatch");
  }
  const auto n = static_cast<std::size_t>(n_);
  const double* lt = lt_.data();
  double* xs = x.data();

  // Both substitutions walk column blocks: a triangular solve on the
  // diagonal block, then a fan-out update of the remaining rows.  Each row's
  // accumulation order is fixed by the block walk.

  // Forward: L y = b, column-oriented.  Row i still subtracts its columns
  // in ascending k, the order of the classic row-oriented loop.
  for (std::size_t c0 = 0; c0 < n; c0 += kSolveBlock) {
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    for (std::size_t k = c0; k < c1; ++k) forward_columns(xs, lt, n, k, k + 1, k + 1, c1);
    forward_columns(xs, lt, n, c0, c1, c1, n);
  }

  // Diagonal.
  for (std::size_t i = 0; i < n; ++i) xs[i] /= d_[i];

  // Backward: L^T x = y, walking column blocks from the bottom.  Row i first
  // absorbs the already-final entries of later blocks (ascending k), then
  // the in-block tail — the fixed canonical order for this kernel.
  const std::size_t nblocks = (n + kSolveBlock - 1) / kSolveBlock;
  for (std::size_t blk = nblocks; blk-- > 0;) {
    const std::size_t c0 = blk * static_cast<std::size_t>(kSolveBlock);
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    // Four rows' dot products at once: four independent chains, each in
    // ascending k.
    std::size_t i = c0;
    for (; i + 4 <= c1; i += 4) {
      const double* r0 = lt + i * n;
      const double* r1 = r0 + n;
      const double* r2 = r1 + n;
      const double* r3 = r2 + n;
      double s0 = xs[i], s1 = xs[i + 1], s2 = xs[i + 2], s3 = xs[i + 3];
      for (std::size_t k = c1; k < n; ++k) {
        const double xk = xs[k];
        s0 -= r0[k] * xk;
        s1 -= r1[k] * xk;
        s2 -= r2[k] * xk;
        s3 -= r3[k] * xk;
      }
      xs[i] = s0;
      xs[i + 1] = s1;
      xs[i + 2] = s2;
      xs[i + 3] = s3;
    }
    for (; i < c1; ++i) {
      double s = xs[i];
      for (std::size_t k = c1; k < n; ++k) s -= lt[i * n + k] * xs[k];
      xs[i] = s;
    }
    for (std::size_t ii = c1; ii-- > c0;) {
      double s = xs[ii];
      for (std::size_t k = ii + 1; k < c1; ++k) s -= lt[ii * n + k] * xs[k];
      xs[ii] = s;
      if (ii == 0) break;  // size_t wrap guard when c0 == 0
    }
  }
}

Vec DenseLdlt::solve(std::span<const double> b) const {
  Vec x(b.begin(), b.end());
  solve_inplace(x);
  return x;
}

void DenseLdlt::solve_block_inplace(std::span<Vec> xs) const {
  for (const Vec& col : xs) {
    if (static_cast<int>(col.size()) != n_) {
      throw std::invalid_argument("DenseLdlt::solve_block: size mismatch");
    }
  }
  for (Vec& col : xs) solve_inplace(col);
}

}  // namespace lapclique::linalg
