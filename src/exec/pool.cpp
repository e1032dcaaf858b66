#include "exec/pool.hpp"

#include <stdexcept>
#include <utility>

namespace lapclique::exec {

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
