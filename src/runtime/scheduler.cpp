#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace hyde::runtime {

JobScheduler::JobScheduler(int num_workers) {
  const int n = std::max(1, num_workers);
  utilization_.resize(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

JobScheduler::~JobScheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void JobScheduler::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  work_cv_.notify_one();
}

void JobScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

SchedulerStats JobScheduler::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  SchedulerStats s;
  s.submitted = submitted_;
  s.executed = executed_;
  s.workers = utilization_;
  return s;
}

void JobScheduler::worker_loop(std::size_t index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Drain before honouring stopping_, so destruction still runs every
      // queued task.
      work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      task();
    } catch (...) {
      // Callers catch their own exceptions; swallow strays so one bad task
      // cannot take the worker (and every queued job behind it) down.
    }
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      ++executed_;
      WorkerUtilization& u = utilization_[index];
      ++u.tasks;
      u.busy_seconds += busy;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace hyde::runtime
