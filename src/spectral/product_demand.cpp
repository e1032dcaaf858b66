#include "spectral/product_demand.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

namespace lapclique::spectral {

using graph::Graph;

Graph product_demand_complete(std::span<const double> demands) {
  const int k = static_cast<int>(demands.size());
  Graph g(k);
  for (int u = 0; u < k; ++u) {
    for (int v = u + 1; v < k; ++v) {
      const double w = demands[static_cast<std::size_t>(u)] *
                       demands[static_cast<std::size_t>(v)];
      if (w > 0) g.add_edge(u, v, w);
    }
  }
  return g;
}

namespace {

/// Class pairs with at most this many potential edges are emitted exactly.
constexpr std::int64_t kExactThreshold = 64;

/// Candidate edges of a deterministic expander between two vertex groups
/// (or within one group when a == b), as index pairs into the groups.
std::vector<std::pair<int, int>> expander_pairs(int p, int q, bool same_group,
                                                int degree) {
  std::vector<std::pair<int, int>> pairs;
  if (same_group) {
    // Circulant with `degree` doubling offsets.
    int off = 1;
    for (int d = 0; d < degree && off <= p / 2; ++d, off *= 2) {
      for (int i = 0; i < p; ++i) {
        const int j = (i + off) % p;
        if (2 * off == p && i >= j) continue;
        if (i != j) pairs.emplace_back(i, j);
      }
    }
  } else {
    // Bipartite rotation expander: p rows, q cols, `degree` shifted
    // diagonal matchings with a multiplicative stride for spread.
    const int stride = std::max(1, q / std::max(1, p));
    for (int s = 0; s < degree; ++s) {
      for (int i = 0; i < p; ++i) {
        const int j = (i * stride + s * (s + 1) / 2 + s) % q;
        pairs.emplace_back(i, j);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

Graph product_demand_sparsifier(std::span<const double> demands) {
  const int k = static_cast<int>(demands.size());
  for (double d : demands) {
    if (!(d > 0)) throw std::invalid_argument("product_demand: demands must be > 0");
  }
  Graph g(k);
  if (k < 2) return g;

  // Binary weight classes.
  std::map<int, std::vector<int>> classes;
  for (int v = 0; v < k; ++v) {
    const int cls = static_cast<int>(
        std::floor(std::log2(demands[static_cast<std::size_t>(v)])));
    classes[cls].push_back(v);
  }
  std::vector<std::vector<int>> cls;
  cls.reserve(classes.size());
  for (auto& [key, members] : classes) cls.push_back(std::move(members));

  // Edges per vertex within a class pair.
  const int degree = std::max(3, static_cast<int>(std::ceil(std::log2(k + 2))) + 1);

  for (std::size_t a = 0; a < cls.size(); ++a) {
    for (std::size_t b = a; b < cls.size(); ++b) {
      const auto& ga = cls[a];
      const auto& gb = cls[b];
      const bool same = a == b;
      if (same && ga.size() < 2) continue;

      // Total product weight between the groups in H(d).
      double sum_a = 0;
      double sum_b = 0;
      double sum_sq = 0;
      for (int v : ga) sum_a += demands[static_cast<std::size_t>(v)];
      for (int v : gb) sum_b += demands[static_cast<std::size_t>(v)];
      for (int v : ga) {
        sum_sq += demands[static_cast<std::size_t>(v)] * demands[static_cast<std::size_t>(v)];
      }
      const double total = same ? (sum_a * sum_a - sum_sq) / 2.0 : sum_a * sum_b;
      if (!(total > 0)) continue;

      const std::int64_t potential =
          same ? static_cast<std::int64_t>(ga.size()) * (static_cast<std::int64_t>(ga.size()) - 1) / 2
               : static_cast<std::int64_t>(ga.size()) * static_cast<std::int64_t>(gb.size());

      std::vector<std::pair<int, int>> pairs;
      if (potential <= kExactThreshold) {
        if (same) {
          for (std::size_t i = 0; i < ga.size(); ++i) {
            for (std::size_t j = i + 1; j < ga.size(); ++j) {
              pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
            }
          }
        } else {
          for (std::size_t i = 0; i < ga.size(); ++i) {
            for (std::size_t j = 0; j < gb.size(); ++j) {
              pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
            }
          }
        }
      } else {
        // Put the larger group second for the rotation construction.
        if (!same && ga.size() > gb.size()) {
          auto swapped = expander_pairs(static_cast<int>(gb.size()),
                                        static_cast<int>(ga.size()), false, degree);
          pairs.reserve(swapped.size());
          for (auto [i, j] : swapped) pairs.emplace_back(j, i);
        } else {
          pairs = expander_pairs(static_cast<int>(ga.size()),
                                 static_cast<int>(gb.size()), same, degree);
        }
      }

      // Scale: keep w(u,v) proportional to d_u*d_v, match the pair total.
      double picked = 0;
      for (auto [i, j] : pairs) {
        picked += demands[static_cast<std::size_t>(ga[static_cast<std::size_t>(i)])] *
                  demands[static_cast<std::size_t>(gb[static_cast<std::size_t>(j)])];
      }
      if (!(picked > 0)) continue;
      const double scale = total / picked;
      for (auto [i, j] : pairs) {
        const int u = ga[static_cast<std::size_t>(i)];
        const int v = gb[static_cast<std::size_t>(j)];
        if (u == v) continue;
        const double w = demands[static_cast<std::size_t>(u)] *
                         demands[static_cast<std::size_t>(v)] * scale;
        g.add_edge(u, v, w);
      }
    }
  }
  return g;
}

}  // namespace lapclique::spectral
