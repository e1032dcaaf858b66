// exec — the deterministic multi-threaded execution engine.
//
// The congested clique is embarrassingly parallel by construction: in every
// round all n nodes compute independently and then exchange messages.  This
// pool lets the simulator exploit that parallelism while keeping every run
// *bit-for-bit identical across thread counts*, which is a hard invariant —
// the paper's contribution is derandomization, so Theorem 1.1/3.3 round
// counts (and the floating-point trajectories that determine them) must be
// reproducible whether the host runs 1 thread or 64.
//
// The determinism discipline (see docs/PERFORMANCE.md):
//
//   * static sharding — work [0, count) is cut into shards whose boundaries
//     depend only on (count, grain), never on the thread count.  Threads
//     claim shards dynamically (an atomic cursor), but which thread runs a
//     shard cannot affect the result because...
//   * ...every shard owns its outputs: parallel_for bodies write disjoint
//     index ranges with a fixed per-index arithmetic sequence, and
//   * reductions go through per-shard partials combined *in shard-index
//     order* on the calling thread (sharded_map) — never through atomics on
//     doubles or combining in completion order.
//
// Thread-count selection: exec::set_threads / exec::ThreadScope bound how
// many workers participate; the process default comes from the
// LAPCLIQUE_THREADS environment variable (absent ⇒ 1, so library users opt
// in).  `lapclique::Runtime` (core/runtime.hpp) carries the per-run value.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lapclique::exec {

/// Upper bound on worker threads (a safety valve, not a tuning knob).
inline constexpr int kMaxThreads = 64;

/// Default shard granularity for elementwise loops: small enough to load-
/// balance, large enough that the per-shard dispatch cost (~100ns) vanishes.
inline constexpr std::int64_t kDefaultGrain = 2048;

/// Shards are capped so per-shard partial buffers stay small; the cap is a
/// constant, so shard boundaries remain a pure function of (count, grain).
inline constexpr std::int64_t kMaxShards = 256;

/// Threads currently participating in parallel regions (>= 1).
[[nodiscard]] int threads();

/// Set the participation bound; clamped to [1, kMaxThreads].  Workers are
/// spawned lazily and never torn down until process exit, so flipping the
/// count is cheap.  Thread-compatible: call from the simulation thread only.
void set_threads(int n);

/// Process default: LAPCLIQUE_THREADS env var, else 1.
[[nodiscard]] int default_threads();

/// RAII: bounds participation for a scope (the Runtime entry points use
/// this so `Runtime::threads` applies for exactly one call).
class ThreadScope {
 public:
  explicit ThreadScope(int n) : prev_(threads()) { set_threads(n); }
  ~ThreadScope() { set_threads(prev_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int prev_;
};

/// Number of shards for `count` items at granularity `grain` — a pure
/// function of its arguments (the determinism anchor).
[[nodiscard]] constexpr std::int64_t shard_count(std::int64_t count,
                                                 std::int64_t grain) {
  if (count <= 0) return 0;
  if (grain < 1) grain = 1;
  const std::int64_t s = (count + grain - 1) / grain;
  return s < kMaxShards ? s : kMaxShards;
}

/// Half-open index range of shard `s` out of `shards` over [0, count):
/// balanced cut, boundaries independent of the thread count.
[[nodiscard]] constexpr std::pair<std::int64_t, std::int64_t> shard_range(
    std::int64_t count, std::int64_t shards, std::int64_t s) {
  const std::int64_t base = count / shards;
  const std::int64_t rem = count % shards;
  const std::int64_t begin = s * base + (s < rem ? s : rem);
  const std::int64_t len = base + (s < rem ? 1 : 0);
  return {begin, begin + len};
}

namespace detail {
/// Run fn(s) for every s in [0, shards) on the caller plus up to
/// threads()-1 workers.  Blocks until every shard completes; rethrows the
/// lowest-shard-index exception.  Falls back to a sequential ascending loop
/// when threads()==1, when called from inside a worker (no nested pools),
/// or when another job is already in flight.
void run_sharded(std::int64_t shards, const std::function<void(std::int64_t)>& fn);
}  // namespace detail

/// Parallel elementwise loop: body(begin, end) over disjoint subranges of
/// [0, count).  Bit-deterministic for bodies whose per-index work is
/// independent (each index is visited exactly once, so shard boundaries and
/// thread count cannot change the result).
template <class Body>
void parallel_for(std::int64_t count, std::int64_t grain, Body&& body) {
  const std::int64_t shards = shard_count(count, grain);
  if (shards <= 0) return;
  if (shards == 1 || threads() == 1) {
    body(std::int64_t{0}, count);
    return;
  }
  detail::run_sharded(shards, [count, shards, &body](std::int64_t s) {
    const auto [b, e] = shard_range(count, shards, s);
    body(b, e);
  });
}

/// parallel_for with the default grain.
template <class Body>
void parallel_for(std::int64_t count, Body&& body) {
  parallel_for(count, kDefaultGrain, std::forward<Body>(body));
}

/// Deterministic map over shards: fn(shard, begin, end) -> T, returning the
/// per-shard partials *in shard-index order*.  This is the building block
/// for deterministic accumulation: callers fold the returned vector left to
/// right, so the combination order is fixed regardless of thread count.
template <class T, class ShardFn>
std::vector<T> sharded_map(std::int64_t count, std::int64_t grain, ShardFn&& fn) {
  const std::int64_t shards = shard_count(count, grain);
  std::vector<T> partials(static_cast<std::size_t>(shards > 0 ? shards : 0));
  if (shards <= 0) return partials;
  if (shards == 1 || threads() == 1) {
    for (std::int64_t s = 0; s < shards; ++s) {
      const auto [b, e] = shard_range(count, shards, s);
      partials[static_cast<std::size_t>(s)] = fn(s, b, e);
    }
    return partials;
  }
  detail::run_sharded(shards, [count, shards, &fn, &partials](std::int64_t s) {
    const auto [b, e] = shard_range(count, shards, s);
    partials[static_cast<std::size_t>(s)] = fn(s, b, e);
  });
  return partials;
}

/// A bounded set of long-lived task workers, the serving frontend's
/// connection executor (src/serve/frontend.*).  Unlike the sharded pool
/// above — which splits ONE deterministic computation across threads —
/// a WorkerSet runs MANY independent opaque tasks (one per client
/// connection) whose completion order is free to vary; determinism is the
/// caller's contract (serve responses are pure functions of the request).
/// Tasks submitted beyond the worker count queue FIFO; the queue depth is
/// what the frontend's admission control bounds.
///
/// Tasks may themselves enter parallel regions (requests shard node-local
/// compute through parallel_for); those regions contend for the single
/// process pool and degrade gracefully to inline execution (see Pool::run),
/// which cannot change results.
class WorkerSet {
 public:
  /// Spawns `workers` threads immediately (clamped to [1, kMaxThreads]).
  explicit WorkerSet(int workers);
  /// close() + join(): pending tasks still run before destruction returns.
  ~WorkerSet();
  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  /// Enqueue a task.  Throws std::runtime_error after close().  A task that
  /// throws is swallowed (workers must outlive any one task's failure);
  /// tasks are expected to report their own errors.
  void submit(std::function<void()> task);

  /// Tasks queued and not yet claimed by a worker (the admission gauge).
  [[nodiscard]] std::size_t pending() const;
  /// Tasks currently executing.
  [[nodiscard]] int busy() const;
  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  /// Refuse further submissions; workers drain the queue, then exit.
  void close();
  /// Wait for every worker to exit (requires close() first or it blocks
  /// until another thread calls it).
  void join();

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int busy_ = 0;
  bool closed_ = false;
};

}  // namespace lapclique::exec
