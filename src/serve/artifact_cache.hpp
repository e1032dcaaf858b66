// Deterministic artifact cache for the serve daemon (lapclique_serve).
//
// A Laplacian "artifact" — the sparsifier, its factorization, and the
// spectral-range estimate wrapped in a solver::LaplacianSolver — is a pure
// function of (graph content, routing mode): the pipeline is deterministic,
// and the factor kernel follows the graph (linalg::resolve_backend), so two
// requests against the same topology may share one artifact and the second
// request skips construction entirely.  The cache key is (graph content
// hash, eps bit pattern, routing mode); eps keying is conservative (today's
// artifacts are eps-independent — eps only drives the iteration count of
// each solve — but keying on it keeps the contract "same key =>
// byte-identical construction" trivially true if a future pipeline
// specializes construction per eps).
//
// Determinism contract (docs/SERVING.md): construction accounting is a
// property of the *artifact*, not of the request that happened to build it.
// acquire() charges the build on a private Network whose tracer is the
// requesting request's ledger — so that request's RoundLedger records the
// construction phases ("solver/sparsify", "solver/gather_sparsifier",
// "solver/range_estimation") on a miss and records zero rounds in them on a
// hit, which is how tests/test_serve.cpp proves hits skip construction —
// while the stored RunInfo is identical no matter which request built it.
// Response bodies therefore cannot depend on cache state.
//
// Eviction is LRU over whole artifacts.  Because any evicted artifact is
// rebuilt bit-identically on the next miss, eviction never changes outputs
// — only the rounds recorded on the *rebuilding* request's private ledger.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "cliquesim/network.hpp"
#include "cliquesim/run_info.hpp"
#include "graph/graph.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::serve {

struct ArtifactKey {
  std::uint64_t graph_hash = 0;  ///< ckpt::graph_hash of the topology
  std::uint64_t eps_bits = 0;    ///< bit pattern of the requested eps
  clique::RoutingMode mode = clique::RoutingMode::kCharged;

  [[nodiscard]] friend bool operator<(const ArtifactKey& a, const ArtifactKey& b) {
    if (a.graph_hash != b.graph_hash) return a.graph_hash < b.graph_hash;
    if (a.eps_bits != b.eps_bits) return a.eps_bits < b.eps_bits;
    return static_cast<int>(a.mode) < static_cast<int>(b.mode);
  }
};

/// One cached construction: the reusable solver plus the accounting of the
/// build (a deterministic function of the key, echoed verbatim in every
/// response that uses the artifact, hit or miss).
struct Artifact {
  std::shared_ptr<const solver::LaplacianSolver> solver;
  RunInfo construction;
};

struct CacheStats {
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
};

class ArtifactCache {
 public:
  explicit ArtifactCache(std::size_t capacity = 16);

  struct Acquired {
    std::shared_ptr<const Artifact> artifact;
    bool hit = false;
  };

  /// Return the artifact for (graph_hash(g), eps, mode), building it on a
  /// miss.  The build runs on a private Network (routing mode from the key)
  /// whose tracer is `request_ledger`, outside the cache lock; if another
  /// thread inserted the same key meanwhile, the already-cached artifact
  /// wins (both are bit-identical, being deterministic functions of the
  /// key).  `g` must be the graph whose content hash is `graph_hash`.
  [[nodiscard]] Acquired acquire(const graph::Graph& g, std::uint64_t graph_hash,
                                 double eps, clique::RoutingMode mode,
                                 obs::RoundLedger* request_ledger);

  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const Artifact> artifact;
    std::uint64_t last_use = 0;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::map<ArtifactKey, Entry> entries_;
};

}  // namespace lapclique::serve
