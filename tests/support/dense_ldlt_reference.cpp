#include "support/dense_ldlt_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace lapclique::test {

namespace {

/// Column-block width for the blocked triangular solves, as in the kernel.
constexpr std::int64_t kSolveBlock = 128;

}  // namespace

DenseLdltReference DenseLdltReference::factor(int n, std::span<const double> dense,
                                              double min_pivot) {
  if (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) != dense.size()) {
    throw std::invalid_argument("DenseLdlt: size mismatch");
  }
  DenseLdltReference f;
  f.n_ = n;
  f.l_.assign(dense.begin(), dense.end());
  f.d_.assign(static_cast<std::size_t>(n), 0.0);
  const auto nn = static_cast<std::size_t>(n);
  double* l = f.l_.data();

  // Left-looking LDL^T.
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
    const double* d = f.d_.data();
    for (std::size_t i = ju + 1; i < nn; ++i) {
      double lij = l[i * nn + ju];
      const double* li = l + i * nn;
      const double* lj = l + ju * nn;
      for (std::size_t k = 0; k < ju; ++k) lij -= li[k] * lj[k] * d[k];
      l[i * nn + ju] = lij / dj;
    }
  }

  // Transposed copy of the strictly-lower triangle (row i of lt_ holds
  // column i of L), so backward substitution streams memory contiguously.
  f.lt_.assign(nn * nn, 0.0);
  double* lt = f.lt_.data();
  for (std::size_t i = 0; i < nn; ++i) {
    for (std::size_t k = i + 1; k < nn; ++k) lt[i * nn + k] = l[k * nn + i];
  }
  return f;
}

void DenseLdltReference::solve_inplace(std::span<double> x) const {
  if (static_cast<int>(x.size()) != n_) {
    throw std::invalid_argument("DenseLdlt::solve: size mismatch");
  }
  const auto n = static_cast<std::size_t>(n_);
  const double* l = l_.data();
  const double* lt = lt_.data();
  double* xs = x.data();

  // Both substitutions walk column blocks: a triangular solve on the
  // diagonal block, then a fan-out update of the remaining rows.  Each row's
  // accumulation order is fixed by the block walk.

  // Forward: L y = b.  Row i accumulates columns in ascending order —
  // identical to the classic row-oriented loop.
  for (std::size_t c0 = 0; c0 < n; c0 += kSolveBlock) {
    const std::size_t c1 = std::min(n, c0 + static_cast<std::size_t>(kSolveBlock));
    for (std::size_t i = c0; i < c1; ++i) {
      double s = xs[i];
      for (std::size_t k = c0; k < i; ++k) s -= l[i * n + k] * xs[k];
      xs[i] = s;
    }
    for (std::size_t i = c1; i < n; ++i) {
      double s = xs[i];
      for (std::size_t k = c0; k < c1; ++k) s -= l[i * n + k] * xs[k];
      xs[i] = s;
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
    for (std::size_t i = c0; i < c1; ++i) {
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

}  // namespace lapclique::test
