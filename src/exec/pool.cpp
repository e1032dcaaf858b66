#include "exec/pool.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace lapclique::exec {

namespace {

/// One posted parallel region.  Heap-held via shared_ptr so a worker that
/// wakes late (after the caller already returned) still touches valid
/// memory when it discovers no shards are left.
struct Job {
  const std::function<void(std::int64_t)>* fn = nullptr;
  std::int64_t shards = 0;
  int max_workers = 0;  ///< workers with index >= this sit the job out
  std::atomic<std::int64_t> cursor{0};
  std::atomic<std::int64_t> done{0};
  std::vector<std::exception_ptr> errors;  ///< sized `shards`, slot per shard
};

/// Set while a thread is executing shard bodies; nested parallel regions
/// (and any pool use from inside a worker) degrade to sequential loops
/// instead of deadlocking on the single job slot.
thread_local bool tls_in_parallel_region = false;

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int active() const { return active_.load(std::memory_order_relaxed); }

  void set_active(int n) {
    if (n < 1) n = 1;
    if (n > kMaxThreads) n = kMaxThreads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < n - 1) {
        const int index = static_cast<int>(workers_.size());
        workers_.emplace_back([this, index] { worker_loop(index); });
      }
    }
    active_.store(n, std::memory_order_relaxed);
  }

  void run(std::int64_t shards, const std::function<void(std::int64_t)>& fn) {
    // Sequential fallbacks keep results identical: shards run in ascending
    // order, which is also a valid (single-thread) parallel schedule.
    if (shards == 1 || active() == 1 || tls_in_parallel_region) {
      run_inline(shards, fn);
      return;
    }
    // One job at a time; a second simulation thread racing in just runs its
    // region inline (results cannot differ — see pool.hpp).
    std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
    if (!submit.owns_lock()) {
      run_inline(shards, fn);
      return;
    }

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->shards = shards;
    job->max_workers = active() - 1;
    job->errors.assign(static_cast<std::size_t>(shards), nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++generation_;
    }
    cv_.notify_all();

    work_on(*job);

    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&job] {
        return job->done.load(std::memory_order_acquire) == job->shards;
      });
      job_.reset();
    }
    for (const std::exception_ptr& e : job->errors) {
      if (e != nullptr) std::rethrow_exception(e);
    }
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  static void run_inline(std::int64_t shards,
                         const std::function<void(std::int64_t)>& fn) {
    const bool prev = tls_in_parallel_region;
    tls_in_parallel_region = true;
    try {
      for (std::int64_t s = 0; s < shards; ++s) fn(s);
    } catch (...) {
      tls_in_parallel_region = prev;
      throw;
    }
    tls_in_parallel_region = prev;
  }

  void work_on(Job& job) {
    const bool prev = tls_in_parallel_region;
    tls_in_parallel_region = true;
    std::int64_t s;
    while ((s = job.cursor.fetch_add(1, std::memory_order_relaxed)) < job.shards) {
      try {
        (*job.fn)(s);
      } catch (...) {
        job.errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.shards) {
        // Last shard anywhere: wake the caller.  Taking the mutex orders
        // this notify against the caller's predicate check.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
    tls_in_parallel_region = prev;
  }

  void worker_loop(int index) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      if (job == nullptr || index >= job->max_workers) continue;
      work_on(*job);
    }
  }

  std::mutex mu_;
  std::mutex submit_mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<int> active_{1};
};

}  // namespace

int threads() { return Pool::instance().active(); }

void set_threads(int n) { Pool::instance().set_active(n); }

namespace detail {

void run_sharded(std::int64_t shards, const std::function<void(std::int64_t)>& fn) {
  if (shards <= 0) return;
  Pool::instance().run(shards, fn);
}

}  // namespace detail

WorkerSet::WorkerSet(int workers) {
  if (workers < 1) workers = 1;
  if (workers > kMaxThreads) workers = kMaxThreads;
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerSet::~WorkerSet() {
  close();
  join();
}

void WorkerSet::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) throw std::runtime_error("WorkerSet: submit after close");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::size_t WorkerSet::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int WorkerSet::busy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_;
}

void WorkerSet::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void WorkerSet::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerSet::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    try {
      task();
    } catch (...) {
      // Task failures are the task's problem (connections report their own
      // errors); the worker must survive to serve the next one.
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
    }
  }
}

}  // namespace lapclique::exec
