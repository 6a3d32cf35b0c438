/// Tests for the job scheduler and the scheduling-independence of batch runs.
///
/// The headline acceptance property of the runtime: a batch executed on one
/// worker and the same batch on several workers produce bit-identical
/// deterministic reports (`to_json(report, /*include_volatile=*/false)`) —
/// results depend on the job list and seeds, never on scheduling.

#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "runtime/batch.hpp"
#include "runtime/report.hpp"

namespace hyde::runtime {
namespace {

TEST(JobSchedulerTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  JobScheduler pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);

  // The pool stays usable after an idle barrier.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 201);
}

TEST(JobSchedulerTest, WorkerCountClampedToAtLeastOne) {
  JobScheduler pool(0);
  EXPECT_EQ(pool.num_workers(), 1);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(JobSchedulerTest, WaitIdleOnEmptyPoolReturns) {
  JobScheduler pool(2);
  pool.wait_idle();
}

TEST(JobSchedulerTest, DestructorDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    JobScheduler pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(JobSchedulerTest, OrderedSubmitRunsEveryTaskAndAccountsForAll) {
  // The windowed engine orders its batch itself and submits task by task:
  // every task runs once and the per-worker figures add up.
  std::atomic<int> counter{0};
  JobScheduler pool(3);
  for (int i = 0; i < 60; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 60);

  const SchedulerStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 60u);
  EXPECT_EQ(stats.executed, 60u);
  ASSERT_EQ(stats.workers.size(), 3u);
  std::uint64_t worker_tasks = 0;
  for (const WorkerUtilization& u : stats.workers) {
    worker_tasks += u.tasks;
    EXPECT_GE(u.busy_seconds, 0.0);
  }
  EXPECT_EQ(worker_tasks, 60u);
}

TEST(JobSchedulerTest, OneWorkerRunsTasksInSubmissionOrder) {
  std::vector<int> order;  // one worker: no concurrent access
  {
    JobScheduler pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
  }
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(JobSchedulerTest, ThrowingOrderedTaskDoesNotKillItsWorker) {
  std::atomic<int> counter{0};
  JobScheduler pool(2);
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 0) {
      pool.submit([] { throw std::runtime_error("boom"); });
    } else {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 16);
  EXPECT_EQ(pool.stats().executed, 20u);

  // Every worker survived the strays and keeps taking work.
  for (int i = 0; i < 4; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(BatchDeterminismTest, OneWorkerAndFourWorkersAgreeBitForBit) {
  const std::vector<std::string> circuits = {"rd73", "z4ml", "misex1", "f51m"};
  const std::vector<baseline::System> systems = {
      baseline::System::kHyde, baseline::System::kImodecLike};
  const std::vector<BatchJob> jobs = suite_jobs(circuits, systems, 5, 1);
  ASSERT_EQ(jobs.size(), circuits.size() * systems.size());

  BatchOptions serial;
  serial.workers = 1;
  BatchOptions parallel = serial;
  parallel.workers = 4;

  const RunReport a = run_batch(jobs, serial);
  const RunReport b = run_batch(jobs, parallel);
  EXPECT_TRUE(a.all_ok());
  EXPECT_TRUE(b.all_ok());
  EXPECT_GT(a.totals.cache_lookups, 0);

  // The deterministic JSON subset (results, stats, seeds, cache closure) is
  // bit-identical; only wall-clock/worker/observed-traffic fields may differ.
  EXPECT_EQ(to_json(a, /*include_volatile=*/false),
            to_json(b, /*include_volatile=*/false));
}

TEST(BatchDeterminismTest, CacheOffStillDeterministicAndErrorsAreCaptured) {
  std::vector<BatchJob> jobs = suite_jobs({"rd73"}, {baseline::System::kHyde},
                                          5, 1);
  jobs.push_back(BatchJob{"no_such_circuit", baseline::System::kHyde, 5, 1});

  BatchOptions options;
  options.workers = 2;
  options.use_cache = false;
  const RunReport report = run_batch(jobs, options);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].error.empty());
  EXPECT_TRUE(report.jobs[0].verified);
  EXPECT_FALSE(report.jobs[1].error.empty());
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.cache.unique_functions, 0u);

  const std::string json = to_json(report, /*include_volatile=*/false);
  EXPECT_NE(json.find("no_such_circuit"), std::string::npos);
  const std::string csv = to_csv(report);
  EXPECT_NE(csv.find("rd73"), std::string::npos);
}

/// Deterministic FlowStats counters of \p s, for comparing two batch runs.
std::vector<std::uint64_t> deterministic_counters(const core::FlowStats& s) {
  return {static_cast<std::uint64_t>(s.decomposition_steps),
          static_cast<std::uint64_t>(s.shannon_fallbacks),
          static_cast<std::uint64_t>(s.hyper_groups),
          static_cast<std::uint64_t>(s.encoder_runs),
          static_cast<std::uint64_t>(s.encoder_random_kept),
          static_cast<std::uint64_t>(s.cache_lookups)};
}

TEST(BatchDeterminismTest, TotalsAreTheJobsStatsMerged) {
  const std::vector<BatchJob> jobs = suite_jobs(
      {"rd73", "misex1", "z4ml"},
      {baseline::System::kHyde, baseline::System::kImodecLike}, 5, 1);
  BatchOptions serial;
  serial.workers = 1;
  BatchOptions parallel = serial;
  parallel.workers = 4;
  const RunReport a = run_batch(jobs, serial);
  const RunReport b = run_batch(jobs, parallel);
  ASSERT_TRUE(a.all_ok());
  ASSERT_TRUE(b.all_ok());

  for (const RunReport* report : {&a, &b}) {
    int steps = 0;
    int lookups = 0;
    std::uint64_t bdd_hits = 0;
    std::uint64_t selects = 0;
    std::uint64_t peak = 0;
    std::uint64_t peak_sum = 0;
    for (const JobReport& job : report->jobs) {
      steps += job.stats.decomposition_steps;
      lookups += job.stats.cache_lookups;
      bdd_hits += job.stats.bdd_cache_hits;
      selects += job.stats.search_selects;
      peak = std::max(peak, job.stats.bdd_peak_live_nodes);
      peak_sum += job.stats.bdd_peak_live_nodes;
    }
    EXPECT_EQ(report->totals.decomposition_steps, steps);
    EXPECT_EQ(report->totals.cache_lookups, lookups);
    EXPECT_EQ(report->totals.bdd_cache_hits, bdd_hits);
    EXPECT_EQ(report->totals.search_selects, selects);
    EXPECT_EQ(report->totals.bdd_peak_live_nodes, peak);
    EXPECT_LT(report->totals.bdd_peak_live_nodes, peak_sum);
    EXPECT_FALSE(report->totals.collapse_mode);
  }
  EXPECT_GT(a.totals.cache_lookups, 0);
  EXPECT_EQ(deterministic_counters(a.totals), deterministic_counters(b.totals));
}

/// Splits RFC 4180 CSV text into records of fields.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> records(1);
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        field.push_back(c);
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      records.back().push_back(field);
      field.clear();
    } else if (c == '\n') {
      records.back().push_back(field);
      field.clear();
      records.emplace_back();
    } else {
      field.push_back(c);
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted field";
  if (records.back().empty() && field.empty()) records.pop_back();
  return records;
}

TEST(BatchReportTest, CsvRowsKeepTheHeadersColumnCount) {
  const std::vector<std::string> circuits = {"rd73", "a,b", "say \"hi\"",
                                             "two\nlines"};
  const RunReport report = run_batch(
      suite_jobs(circuits, {baseline::System::kHyde}, 5, 1), BatchOptions{});
  ASSERT_EQ(report.jobs.size(), circuits.size());
  EXPECT_TRUE(report.jobs[0].error.empty());

  const auto records = parse_csv(to_csv(report));
  ASSERT_EQ(records.size(), circuits.size() + 1);
  const std::vector<std::string>& header = records[0];
  ASSERT_EQ(header[0], "circuit");
  ASSERT_EQ(header[8], "error");
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const std::vector<std::string>& row = records[i + 1];
    ASSERT_EQ(row.size(), header.size()) << circuits[i];
    EXPECT_EQ(row[0], circuits[i]);
    EXPECT_EQ(row[8], report.jobs[i].error);
  }
  EXPECT_NE(records[2][8].find("a,b"), std::string::npos);
}

}  // namespace
}  // namespace hyde::runtime
