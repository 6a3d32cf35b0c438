/// \file scheduler.hpp
/// \brief Fixed thread pool executing independent synthesis jobs from one
/// FIFO queue.
///
/// N workers take tasks from a single shared queue in submission order; an
/// idle worker takes the next task, so there is nothing to balance beyond
/// the order the caller submits in. The batch runtime submits whole-flow
/// jobs; the windowed engine submits its window tasks longest-first (cost
/// descending), which is longest-processing-time list scheduling (see
/// part/windowed.cpp).
///
/// Ordering never makes results schedule-dependent: callers slot outcomes
/// by task index, so the schedule moves wall-clock, never output.
/// Everything a job touches is job-private (each `core::run_flow`
/// invocation constructs its own `bdd::Manager` on the worker thread that
/// runs it — the single-threaded BDD package is never shared); the only
/// shared mutable state in a batch is the NPN result cache, which
/// synchronizes internally. Tasks must not throw: callers catch job
/// exceptions and record them per index. As a backstop, an escaping
/// exception terminates the task but not the worker.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hyde::runtime {

/// Per-worker execution figures (volatile: they move with scheduling).
struct WorkerUtilization {
  std::uint64_t tasks = 0;     ///< tasks this worker executed
  double busy_seconds = 0.0;   ///< wall-clock spent inside tasks
};

/// Point-in-time scheduler counters (see JobScheduler::stats).
struct SchedulerStats {
  std::uint64_t submitted = 0;  ///< tasks accepted
  std::uint64_t executed = 0;   ///< tasks completed
  std::vector<WorkerUtilization> workers;
};

class JobScheduler {
 public:
  /// Spawns \p num_workers threads (clamped to at least 1).
  explicit JobScheduler(int num_workers);
  /// Waits for queued work, then joins all workers.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task; tasks start in submission order.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void wait_idle();

  /// Cumulative execution counters (safe to call while idle or busy).
  SchedulerStats stats() const;

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::vector<WorkerUtilization> utilization_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t executed_ = 0;
  bool stopping_ = false;
};

}  // namespace hyde::runtime
