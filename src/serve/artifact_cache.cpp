#include "serve/artifact_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace lapclique::serve {

namespace {

std::uint64_t eps_bit_pattern(double eps) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(eps));
  std::memcpy(&bits, &eps, sizeof(bits));
  return bits;
}

}  // namespace

ArtifactCache::ArtifactCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  stats_.capacity = capacity_;
}

std::shared_ptr<const Artifact> ArtifactCache::acquire(const graph::Graph& g,
                                                      std::uint64_t graph_hash,
                                                      double eps,
                                                      clique::RoutingMode mode) {
  const ArtifactKey key{graph_hash, eps_bit_pattern(eps), mode};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      it->second.last_use = ++tick_;
      return it->second.artifact;
    }
    ++stats_.misses;
  }

  // Build outside the lock: construction can be expensive, and concurrent
  // misses on different keys must not serialize.
  auto artifact = std::make_shared<Artifact>();
  {
    clique::Network net(std::max(g.num_vertices(), 2));
    net.set_routing_mode(mode);
    artifact->solver = std::make_shared<const solver::LaplacianSolver>(
        g, solver::LaplacianSolverOptions{}, &net);
    artifact->construction.capture(net);
    const linalg::FactorStats& factor = artifact->solver->factor_stats();
    artifact->construction.numerics = linalg::to_string(factor.chosen);
    artifact->construction.factor_fill = factor.fill_nnz;
  }

  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent miss on the same key finished first; both artifacts are
    // bit-identical, so keep the cached one and drop ours.
    it->second.last_use = ++tick_;
    return it->second.artifact;
  }
  while (entries_.size() >= capacity_) {
    auto victim = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.last_use < victim->second.last_use) victim = cand;
    }
    entries_.erase(victim);
    ++stats_.evictions;
  }
  Entry entry;
  entry.artifact = artifact;
  entry.last_use = ++tick_;
  entries_.emplace(key, std::move(entry));
  return artifact;
}

CacheStats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.size = entries_.size();
  return s;
}

void ArtifactCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace lapclique::serve
