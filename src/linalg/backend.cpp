#include "linalg/backend.hpp"

#include <cstdlib>
#include <stdexcept>

#include "exec/pool.hpp"

namespace lapclique::linalg {

namespace {

/// kAuto thresholds.  Pure constants: the resolution must be a deterministic
/// function of (n, nnz) so reruns, threads, and routing modes all see the
/// same factorization.  Below kSparseMinN the dense factor wins outright
/// (and the golden instances at n <= 256 stay on the historical dense bits);
/// above it, sparse takes over unless the matrix is dense enough
/// (nnz > n^2/kSparseDensityDivisor) that fill-in would eat the win.
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

std::optional<Backend> backend_from_string(std::string_view s) {
  if (s == "auto") return Backend::kAuto;
  if (s == "dense") return Backend::kDense;
  if (s == "sparse") return Backend::kSparse;
  return std::nullopt;
}

Backend default_backend() {
  static const Backend env_default = [] {
    const char* e = std::getenv("LAPCLIQUE_NUMERICS");
    if (e == nullptr) return Backend::kAuto;
    return backend_from_string(e).value_or(Backend::kAuto);
  }();
  return env_default;
}

Backend resolve_backend(Backend requested, int n, std::int64_t nnz) {
  if (requested != Backend::kAuto) return requested;
  if (n < kSparseMinN) return Backend::kDense;
  const std::int64_t cells = static_cast<std::int64_t>(n) * n;
  return nnz * kSparseDensityDivisor <= cells ? Backend::kSparse : Backend::kDense;
}

BackendLaplacianFactor BackendLaplacianFactor::factor(const CsrMatrix& laplacian,
                                                      Backend requested) {
  BackendLaplacianFactor f;
  const int n = laplacian.size();
  const auto nu = static_cast<std::size_t>(n);
  f.n_ = n;
  f.stats_.requested = requested;
  f.stats_.chosen = resolve_backend(requested, n, laplacian.nnz());
  f.stats_.n = n;
  f.stats_.nnz = laplacian.nnz();

  // Components via DFS over the sparsity pattern; the first vertex of each
  // component is grounded.
  const auto rowptr = laplacian.row_ptr();
  const auto colidx = laplacian.col_idx();
  const auto avals = laplacian.values();
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
      for (int k = rowptr[static_cast<std::size_t>(v)];
           k < rowptr[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = colidx[static_cast<std::size_t>(k)];
        if (f.comp_[static_cast<std::size_t>(u)] == -1) {
          f.comp_[static_cast<std::size_t>(u)] = c;
          stack.push_back(u);
        }
      }
    }
  }
  std::vector<char> is_grounded(nu, 0);
  for (int g : f.grounded_) is_grounded[static_cast<std::size_t>(g)] = 1;

  if (f.stats_.chosen == Backend::kDense) {
    // Pin grounded rows/cols to identity; the result is SPD.  Row-sharded:
    // each row is written by exactly one task.
    std::vector<double> dense = laplacian.to_dense();
    exec::parallel_for(n, 64, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t r = b; r < e; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        const bool gr = is_grounded[ru] != 0;
        double* row = dense.data() + ru * nu;
        for (int c = 0; c < n; ++c) {
          if (gr || is_grounded[static_cast<std::size_t>(c)] != 0) {
            row[static_cast<std::size_t>(c)] = (static_cast<int>(r) == c) ? 1.0 : 0.0;
          }
        }
      }
    });
    f.dense_ = DenseLdlt::factor(n, dense);
    // The dense factor stores the full triangle; report its logical fill.
    f.stats_.fill_nnz = static_cast<std::int64_t>(n) * (n + 1) / 2;
    return f;
  }

  // Grounded matrix, kept sparse: drop every entry touching a grounded
  // vertex and pin those diagonals to 1.  The result is SPD.
  std::vector<Triplet> t;
  t.reserve(avals.size() + f.grounded_.size());
  for (int r = 0; r < n; ++r) {
    if (is_grounded[static_cast<std::size_t>(r)] != 0) {
      t.push_back({r, r, 1.0});
      continue;
    }
    for (int k = rowptr[static_cast<std::size_t>(r)];
         k < rowptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = colidx[static_cast<std::size_t>(k)];
      if (is_grounded[static_cast<std::size_t>(c)] != 0) continue;
      t.push_back({r, c, avals[static_cast<std::size_t>(k)]});
    }
  }
  const CsrMatrix grounded = CsrMatrix::from_triplets(n, t);

  // Deterministic fill-reducing ordering of the grounded pattern, then
  // factor the permuted matrix.
  f.perm_ = rcm_ordering(grounded);
  std::vector<int> iperm(nu, 0);
  for (int p = 0; p < n; ++p) {
    iperm[static_cast<std::size_t>(f.perm_[static_cast<std::size_t>(p)])] = p;
  }
  std::vector<Triplet> pt;
  pt.reserve(grounded.values().size());
  const auto grp = grounded.row_ptr();
  const auto gci = grounded.col_idx();
  const auto gv = grounded.values();
  for (int r = 0; r < n; ++r) {
    const int pr = iperm[static_cast<std::size_t>(r)];
    for (int k = grp[static_cast<std::size_t>(r)];
         k < grp[static_cast<std::size_t>(r) + 1]; ++k) {
      pt.push_back({pr, iperm[static_cast<std::size_t>(gci[static_cast<std::size_t>(k)])],
                    gv[static_cast<std::size_t>(k)]});
    }
  }
  f.sparse_ = SparseLdlt::factor(CsrMatrix::from_triplets(n, pt));
  f.stats_.fill_nnz = f.sparse_.fill_nnz();
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
