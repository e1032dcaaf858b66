#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/pool.hpp"

namespace lapclique::linalg {

namespace {

/// Column-block width for the blocked triangular solves.  A pure constant:
/// block boundaries must not depend on the thread count (exec/pool.hpp).
constexpr std::int64_t kSolveBlock = 128;

/// Minimum flop count before a loop goes through the pool; below this the
/// dispatch overhead dominates.  Depends only on problem size, so the
/// sequential/parallel decision is itself deterministic.
constexpr std::int64_t kParallelFlops = 16384;

}  // namespace

DenseLdlt DenseLdlt::factor(int n, std::span<const double> dense, double min_pivot) {
  if (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) != dense.size()) {
    throw std::invalid_argument("DenseLdlt: size mismatch");
  }
  DenseLdlt f;
  f.n_ = n;
  f.l_.assign(dense.begin(), dense.end());
  f.d_.assign(static_cast<std::size_t>(n), 0.0);
  const auto nn = static_cast<std::size_t>(n);
  double* l = f.l_.data();

  // Left-looking LDL^T.  For a fixed column j the updates of rows
  // i = j+1..n-1 are independent and each runs the exact arithmetic the
  // sequential loop would, so sharding rows over the pool is bit-identical
  // to a single-threaded factorization.
  for (int j = 0; j < n; ++j) {
    const std::size_t ju = static_cast<std::size_t>(j);
    double dj = l[ju * nn + ju];
    for (std::size_t k = 0; k < ju; ++k) {
      dj -= l[ju * nn + k] * l[ju * nn + k] * f.d_[k];
    }
    if (!(std::abs(dj) > min_pivot)) {
      throw std::runtime_error("DenseLdlt: pivot collapsed; matrix not SPD enough");
    }
    f.d_[ju] = dj;
    const std::int64_t tail = n - j - 1;
    const auto row_update = [l, nn, ju, dj, d = f.d_.data()](std::int64_t b,
                                                             std::int64_t e) {
      for (std::int64_t t = b; t < e; ++t) {
        const std::size_t i = ju + 1 + static_cast<std::size_t>(t);
        double lij = l[i * nn + ju];
        const double* li = l + i * nn;
        const double* lj = l + ju * nn;
        for (std::size_t k = 0; k < ju; ++k) lij -= li[k] * lj[k] * d[k];
        l[i * nn + ju] = lij / dj;
      }
    };
    if (tail * static_cast<std::int64_t>(ju) >= kParallelFlops) {
      // Shard so each task carries a few thousand multiply-adds.
      const std::int64_t grain =
          std::max<std::int64_t>(1, kParallelFlops / std::max<std::int64_t>(1, ju));
      exec::parallel_for(tail, grain, row_update);
    } else {
      row_update(0, tail);
    }
  }

  // Transposed copy of the strictly-lower triangle (row i of lt_ holds
  // column i of L), so backward substitution streams memory contiguously.
  f.lt_.assign(nn * nn, 0.0);
  double* lt = f.lt_.data();
  exec::parallel_for(n, 64, [l, lt, nn](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      for (std::size_t k = iu + 1; k < nn; ++k) lt[iu * nn + k] = l[k * nn + iu];
    }
  });
  return f;
}

void DenseLdlt::solve_inplace(std::span<double> x) const {
  if (static_cast<int>(x.size()) != n_) {
    throw std::invalid_argument("DenseLdlt::solve: size mismatch");
  }
  const auto n = static_cast<std::size_t>(n_);
  const double* l = l_.data();
  const double* lt = lt_.data();
  double* xs = x.data();

  // Both substitutions run the same blocked schedule at every thread count:
  // a sequential triangular solve on the diagonal block, then a fan-out
  // update of the remaining rows sharded over the pool.  Each row's
  // accumulation order is fixed by the block walk (never by the thread
  // count), which is what makes the solver bit-reproducible in parallel.

  // Forward: L y = b.  Row i accumulates columns in ascending order —
  // identical to the classic row-oriented loop.
  for (std::size_t c0 = 0; c0 < n; c0 += kSolveBlock) {
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    for (std::size_t i = c0; i < c1; ++i) {
      double s = xs[i];
      for (std::size_t k = c0; k < i; ++k) s -= l[i * n + k] * xs[k];
      xs[i] = s;
    }
    const std::int64_t tail = static_cast<std::int64_t>(n - c1);
    const auto update = [l, xs, n, c0, c1](std::int64_t b, std::int64_t e) {
      for (std::int64_t t = b; t < e; ++t) {
        const std::size_t i = c1 + static_cast<std::size_t>(t);
        double s = xs[i];
        for (std::size_t k = c0; k < c1; ++k) s -= l[i * n + k] * xs[k];
        xs[i] = s;
      }
    };
    if (tail * static_cast<std::int64_t>(c1 - c0) >= kParallelFlops) {
      exec::parallel_for(tail, std::max<std::int64_t>(1, kParallelFlops / kSolveBlock),
                         update);
    } else {
      update(0, tail);
    }
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
    const std::int64_t rows = static_cast<std::int64_t>(c1 - c0);
    const auto absorb = [lt, xs, n, c0, c1](std::int64_t b, std::int64_t e) {
      for (std::int64_t t = b; t < e; ++t) {
        const std::size_t i = c0 + static_cast<std::size_t>(t);
        double s = xs[i];
        for (std::size_t k = c1; k < n; ++k) s -= lt[i * n + k] * xs[k];
        xs[i] = s;
      }
    };
    const std::int64_t absorb_flops = rows * static_cast<std::int64_t>(n - c1);
    if (absorb_flops >= kParallelFlops) {
      exec::parallel_for(
          rows,
          std::max<std::int64_t>(1, kParallelFlops /
                                        std::max<std::int64_t>(1, n - c1)),
          absorb);
    } else {
      absorb(0, rows);
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
  const std::size_t ncols = xs.size();
  if (ncols == 0) return;
  if (ncols == 1) {
    solve_inplace(xs[0]);
    return;
  }
  for (const Vec& col : xs) {
    if (static_cast<int>(col.size()) != n_) {
      throw std::invalid_argument("DenseLdlt::solve_block: size mismatch");
    }
  }
  const auto n = static_cast<std::size_t>(n_);
  const double* l = l_.data();
  const double* lt = lt_.data();
  // Column pointers so the inner loops index xv[c][i] without bounds checks.
  std::vector<double*> xv(ncols);
  for (std::size_t c = 0; c < ncols; ++c) xv[c] = xs[c].data();

  // The schedule below is solve_inplace's blocked walk verbatim; every
  // accumulation gains an inner loop over RHS columns, so the factor row is
  // read once per block step while each column's reduction order (ascending
  // k within the block walk) is unchanged from the scalar kernel.

  // Forward: L y = b.
  for (std::size_t c0 = 0; c0 < n; c0 += kSolveBlock) {
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    for (std::size_t i = c0; i < c1; ++i) {
      for (std::size_t c = 0; c < ncols; ++c) {
        double s = xv[c][i];
        for (std::size_t k = c0; k < i; ++k) s -= l[i * n + k] * xv[c][k];
        xv[c][i] = s;
      }
    }
    const std::int64_t tail = static_cast<std::int64_t>(n - c1);
    const auto update = [l, &xv, ncols, n, c0, c1](std::int64_t b, std::int64_t e) {
      for (std::int64_t t = b; t < e; ++t) {
        const std::size_t i = c1 + static_cast<std::size_t>(t);
        for (std::size_t c = 0; c < ncols; ++c) {
          double s = xv[c][i];
          for (std::size_t k = c0; k < c1; ++k) s -= l[i * n + k] * xv[c][k];
          xv[c][i] = s;
        }
      }
    };
    if (tail * static_cast<std::int64_t>(c1 - c0) >= kParallelFlops) {
      exec::parallel_for(tail, std::max<std::int64_t>(1, kParallelFlops / kSolveBlock),
                         update);
    } else {
      update(0, tail);
    }
  }

  // Diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < ncols; ++c) xv[c][i] /= d_[i];
  }

  // Backward: L^T x = y.
  const std::size_t nblocks = (n + kSolveBlock - 1) / kSolveBlock;
  for (std::size_t blk = nblocks; blk-- > 0;) {
    const std::size_t c0 = blk * static_cast<std::size_t>(kSolveBlock);
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    const std::int64_t rows = static_cast<std::int64_t>(c1 - c0);
    const auto absorb = [lt, &xv, ncols, n, c0, c1](std::int64_t b, std::int64_t e) {
      for (std::int64_t t = b; t < e; ++t) {
        const std::size_t i = c0 + static_cast<std::size_t>(t);
        for (std::size_t c = 0; c < ncols; ++c) {
          double s = xv[c][i];
          for (std::size_t k = c1; k < n; ++k) s -= lt[i * n + k] * xv[c][k];
          xv[c][i] = s;
        }
      }
    };
    const std::int64_t absorb_flops = rows * static_cast<std::int64_t>(n - c1);
    if (absorb_flops >= kParallelFlops) {
      exec::parallel_for(
          rows,
          std::max<std::int64_t>(1, kParallelFlops /
                                        std::max<std::int64_t>(1, n - c1)),
          absorb);
    } else {
      absorb(0, rows);
    }
    for (std::size_t ii = c1; ii-- > c0;) {
      for (std::size_t c = 0; c < ncols; ++c) {
        double s = xv[c][ii];
        for (std::size_t k = ii + 1; k < c1; ++k) s -= lt[ii * n + k] * xv[c][k];
        xv[c][ii] = s;
      }
      if (ii == 0) break;  // size_t wrap guard when c0 == 0
    }
  }
}

}  // namespace lapclique::linalg
