// exec — the library's one thread user: the serving frontend's connection
// executor.
//
// In the congested clique only rounds count and node-local work is free, so
// every kernel (factor, solve, matvec, sparsifier, IPM arithmetic, the
// Network's tally) runs on the calling thread; no run is ever split across
// threads.  The threads that remain belong to lapclique_serve's socket
// frontend (src/serve/frontend.*): a WorkerSet of connection workers, each
// running whole requests through Server::handle.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lapclique::exec {

/// Upper bound on a WorkerSet's threads (a safety valve, not a tuning knob).
inline constexpr int kMaxThreads = 64;

/// Does nothing: every kernel runs on the calling thread.  It stays only
/// because benchmark/src still constructs it; the next benchmark change
/// deletes it with those callers.
class ThreadScope {
 public:
  explicit ThreadScope(int) {}
};

/// A bounded set of long-lived task workers, the serving frontend's
/// connection executor.  A WorkerSet runs many independent opaque tasks (one
/// per client connection) whose completion order is free to vary;
/// determinism is the caller's contract (serve responses are pure functions
/// of the request).  Tasks submitted beyond the worker count queue FIFO; the
/// queue depth is what the frontend's admission control bounds.
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
