#include "linalg/backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lapclique::linalg {

namespace {

/// kAuto thresholds.  Pure constants: the resolution must be a deterministic
/// function of (n, nnz) so reruns, threads, and routing modes all see the
/// same factorization.  They were set from a dense-vs-sparse timing of
/// kernels that have since been replaced (docs/PERFORMANCE.md); below
/// kSparseMinN the golden instances at n <= 256 stay on the dense bits.
constexpr int kSparseMinN = 512;
constexpr std::int64_t kSparseDensityDivisor = 16;

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kAuto:
      return "auto";
    case Backend::kDense:
      return "dense";
    case Backend::kSparse:
      return "sparse";
  }
  return "auto";
}

Backend resolve_backend(Backend requested, int n, std::int64_t nnz) {
  if (requested != Backend::kAuto) return requested;
  if (n < kSparseMinN) return Backend::kDense;
  const std::int64_t cells = static_cast<std::int64_t>(n) * n;
  return nnz * kSparseDensityDivisor <= cells ? Backend::kSparse : Backend::kDense;
}

BackendLaplacianFactor BackendLaplacianFactor::analyze(int n,
                                                       std::span<const int> row_ptr,
                                                       std::span<const int> col_idx,
                                                       Backend requested) {
  if (n < 0 || row_ptr.size() != static_cast<std::size_t>(n) + 1 ||
      static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(n)]) != col_idx.size()) {
    throw std::invalid_argument("BackendLaplacianFactor::analyze: malformed CSR pattern");
  }
  BackendLaplacianFactor f;
  const auto nu = static_cast<std::size_t>(n);
  const auto nnz = static_cast<std::int64_t>(col_idx.size());
  f.n_ = n;
  f.stats_.chosen = resolve_backend(requested, n, nnz);
  f.stats_.n = n;
  f.stats_.nnz = nnz;

  // Components via DFS over the sparsity pattern; the first vertex of each
  // component is grounded.
  f.comp_.assign(nu, -1);
  std::vector<int> stack;
  for (int s = 0; s < n; ++s) {
    if (f.comp_[static_cast<std::size_t>(s)] != -1) continue;
    const int c = static_cast<int>(f.grounded_.size());
    f.grounded_.push_back(s);
    f.comp_size_.push_back(0);
    f.comp_[static_cast<std::size_t>(s)] = c;
    stack.push_back(s);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      ++f.comp_size_[static_cast<std::size_t>(c)];
      for (int k = row_ptr[static_cast<std::size_t>(v)];
           k < row_ptr[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = col_idx[static_cast<std::size_t>(k)];
        if (f.comp_[static_cast<std::size_t>(u)] == -1) {
          f.comp_[static_cast<std::size_t>(u)] = c;
          stack.push_back(u);
        }
      }
    }
  }
  std::vector<char> is_grounded(nu, 0);
  for (int g : f.grounded_) is_grounded[static_cast<std::size_t>(g)] = 1;

  // The grounded matrix drops every entry touching a grounded vertex and
  // pins those diagonals to 1; the result is SPD.  Its CSR pattern, each
  // entry remembering its slot in L (-1 for a pinned diagonal):
  std::vector<int> gptr(nu + 1, 0);
  std::vector<int> gcol;
  std::vector<int> gsrc;
  gcol.reserve(col_idx.size() + f.grounded_.size());
  gsrc.reserve(gcol.capacity());
  for (int r = 0; r < n; ++r) {
    if (is_grounded[static_cast<std::size_t>(r)] != 0) {
      gcol.push_back(r);
      gsrc.push_back(-1);
    } else {
      for (int k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const int c = col_idx[static_cast<std::size_t>(k)];
        if (is_grounded[static_cast<std::size_t>(c)] != 0) continue;
        gcol.push_back(c);
        gsrc.push_back(k);
      }
    }
    gptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(gcol.size());
  }
  // ... and where grounded entry q lands in the kernel's input.
  f.slot_.assign(col_idx.size(), -1);
  const auto place = [&](int q, std::int64_t index) {
    const int k = gsrc[static_cast<std::size_t>(q)];
    if (k < 0) {
      f.pinned_.push_back(index);
    } else {
      f.slot_[static_cast<std::size_t>(k)] = index;
    }
  };

  if (f.stats_.chosen == Backend::kDense) {
    // Row-major positions of an n x n copy.
    for (int r = 0; r < n; ++r) {
      for (int q = gptr[static_cast<std::size_t>(r)]; q < gptr[static_cast<std::size_t>(r) + 1];
           ++q) {
        place(q, static_cast<std::int64_t>(r) * n + gcol[static_cast<std::size_t>(q)]);
      }
    }
    f.kernel_values_ = nu * nu;
    // The dense factor stores the full triangle; report its logical fill.
    f.stats_.fill_nnz = static_cast<std::int64_t>(n) * (n + 1) / 2;
    return f;
  }

  // Sparse: a deterministic fill-reducing ordering of the grounded pattern,
  // then the permuted pattern P = A(perm, perm), each row's columns
  // ascending.
  f.perm_ = rcm_ordering(n, gptr, gcol);
  std::vector<int> iperm(nu, 0);
  for (int p = 0; p < n; ++p) {
    iperm[static_cast<std::size_t>(f.perm_[static_cast<std::size_t>(p)])] = p;
  }
  std::vector<int> pptr(nu + 1, 0);
  std::vector<int> pcol;
  pcol.reserve(gcol.size());
  std::vector<std::pair<int, int>> row;  // (permuted column, grounded entry)
  for (int pr = 0; pr < n; ++pr) {
    const int r = f.perm_[static_cast<std::size_t>(pr)];
    row.clear();
    for (int q = gptr[static_cast<std::size_t>(r)]; q < gptr[static_cast<std::size_t>(r) + 1];
         ++q) {
      row.emplace_back(iperm[static_cast<std::size_t>(gcol[static_cast<std::size_t>(q)])], q);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [pc, q] : row) {
      place(q, static_cast<std::int64_t>(pcol.size()));
      pcol.push_back(pc);
    }
    pptr[static_cast<std::size_t>(pr) + 1] = static_cast<int>(pcol.size());
  }
  f.kernel_values_ = pcol.size();
  f.sparse_ = SparseLdlt::analyze(n, pptr, pcol);
  f.stats_.fill_nnz = f.sparse_.fill_nnz();
  return f;
}

void BackendLaplacianFactor::refactor(std::span<const double> values) {
  if (values.size() != slot_.size()) {
    throw std::invalid_argument(
        "BackendLaplacianFactor::refactor: value count does not match the pattern");
  }
  std::vector<double> kv(kernel_values_, 0.0);
  for (std::size_t k = 0; k < slot_.size(); ++k) {
    if (slot_[k] >= 0) kv[static_cast<std::size_t>(slot_[k])] = values[k];
  }
  for (const std::int64_t p : pinned_) kv[static_cast<std::size_t>(p)] = 1.0;
  if (stats_.chosen == Backend::kDense) {
    dense_ = DenseLdlt::factor(n_, kv);
  } else {
    sparse_.refactor(kv);
  }
}

BackendLaplacianFactor BackendLaplacianFactor::factor(const CsrMatrix& laplacian,
                                                      Backend requested) {
  BackendLaplacianFactor f =
      analyze(laplacian.size(), laplacian.row_ptr(), laplacian.col_idx(), requested);
  f.refactor(laplacian.values());
  return f;
}

void BackendLaplacianFactor::remove_component_means(Vec& x) const {
  std::vector<double> mean(comp_size_.size(), 0.0);
  for (int v = 0; v < n_; ++v) {
    mean[static_cast<std::size_t>(comp_[static_cast<std::size_t>(v)])] +=
        x[static_cast<std::size_t>(v)];
  }
  for (std::size_t c = 0; c < mean.size(); ++c) {
    mean[c] /= static_cast<double>(comp_size_[c]);
  }
  for (int v = 0; v < n_; ++v) {
    x[static_cast<std::size_t>(v)] -=
        mean[static_cast<std::size_t>(comp_[static_cast<std::size_t>(v)])];
  }
}

void BackendLaplacianFactor::solve_columns(std::vector<Vec>& xs) const {
  for (const Vec& x : xs) {
    if (static_cast<int>(x.size()) != n_) {
      throw std::invalid_argument("BackendLaplacianFactor::solve: size mismatch");
    }
  }
  // Project onto range(L) per component; the grounded entries are pinned.
  for (Vec& x : xs) {
    remove_component_means(x);
    for (int g : grounded_) x[static_cast<std::size_t>(g)] = 0.0;
  }
  if (stats_.chosen == Backend::kDense) {
    dense_.solve_block_inplace(xs);
  } else {
    const auto n = static_cast<std::size_t>(n_);
    Vec tmp(n);
    for (Vec& x : xs) {
      for (std::size_t p = 0; p < n; ++p) tmp[p] = x[static_cast<std::size_t>(perm_[p])];
      x.swap(tmp);
    }
    sparse_.solve_block_inplace(xs);
    for (Vec& x : xs) {
      for (std::size_t p = 0; p < n; ++p) tmp[static_cast<std::size_t>(perm_[p])] = x[p];
      x.swap(tmp);
    }
  }
  // Pseudoinverse normalization: per component, mean-zero.
  for (Vec& x : xs) remove_component_means(x);
}

Vec BackendLaplacianFactor::solve(std::span<const double> b) const {
  std::vector<Vec> xs;
  xs.emplace_back(b.begin(), b.end());
  solve_columns(xs);
  return std::move(xs[0]);
}

std::vector<Vec> BackendLaplacianFactor::solve_block(std::span<const Vec> b) const {
  std::vector<Vec> xs(b.begin(), b.end());
  solve_columns(xs);
  return xs;
}

}  // namespace lapclique::linalg
