/// \file report.hpp
/// \brief Structured results of a batch-synthesis run.
///
/// A RunReport aggregates per-job flow/mapper outcomes, NPN-cache figures and
/// wall-clock into deterministic JSON/CSV. Fields split into two groups:
///
///  - *deterministic*: pure functions of (jobs, seeds, flow options). Two
///    runs of the same batch agree on these regardless of worker count or
///    scheduling — the scheduler-determinism test diffs exactly this subset
///    (`to_json(report, /*include_volatile=*/false)`).
///  - *volatile*: wall-clock times, worker count, and the cache's observed
///    hit/miss/race counters (a key another job already published counts as
///    a hit, so these legitimately move with scheduling). Emitted only when
///    `include_volatile` is set.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.hpp"

namespace hyde::runtime {

/// Outcome of one synthesis job (circuit x system x k).
struct JobReport {
  std::string circuit;
  std::string system;
  int k = 5;
  std::uint64_t seed = 1;
  int luts = 0;
  int clbs = 0;  ///< XC3000 CLB count; 0 unless k == 5
  int depth = 0;
  bool verified = false;
  std::string error;  ///< nonempty when the job threw; other fields are zero
  core::FlowStats stats;
  double seconds = 0.0;  ///< volatile: per-job wall-clock on its worker
};

/// Aggregated NPN-cache figures for the whole batch.
struct CacheReport {
  bool enabled = false;
  int max_support = 0;
  /// Deterministic: total cache consultations summed over job FlowStats.
  std::uint64_t flow_lookups = 0;
  /// Distinct memoized functions (the needed-key closure). Deterministic for
  /// memory-only runs; volatile once a persistent store is attached, because
  /// disk promotions and whole-job replays change which keys reach the
  /// memory tier.
  std::uint64_t unique_functions = 0;
  // Observed traffic (volatile).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t races_lost = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Persistent on-disk store figures for the whole run
/// (src/store/persistent_cache.hpp). Volatile: which lookups reach the disk
/// tier depends on which worker warmed the memory tier first, and the byte
/// counters track actual disk traffic.
struct StoreReport {
  bool enabled = false;
  bool readonly = false;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t raw_bytes = 0;    ///< fixed-width payload bytes put this run
  std::uint64_t coded_bytes = 0;  ///< entropy-coded bytes for the same puts
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_records = 0;
  std::uint64_t appends = 0;
  std::uint64_t records = 0;  ///< records visible on disk at snapshot time
  std::uint64_t job_hits = 0;     ///< whole-job outcomes replayed from disk
  std::uint64_t job_appends = 0;  ///< whole-job outcomes committed this run

  /// Entropy-coded over fixed-width size; 0 when nothing was written.
  double codec_ratio() const {
    return raw_bytes == 0 ? 0.0
                          : static_cast<double>(coded_bytes) /
                                static_cast<double>(raw_bytes);
  }
};

/// Aggregated BDD-kernel figures for the whole batch (all volatile: with the
/// NPN cache on, which job pays for a template's BDD work depends on which
/// worker missed first, so per-job and summed kernel counters move with
/// scheduling).
struct BddKernelReport {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_overwrites = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t reorder_runs = 0;
  std::uint64_t peak_live_nodes = 0;  ///< max over all managers in the batch

  double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Aggregated bound-set search engine figures for the whole batch (all
/// volatile: memo hit patterns move with NPN-cache timing, even though the
/// selected bound sets never do).
struct SearchReport {
  std::uint64_t selects = 0;
  std::uint64_t candidates_evaluated = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_clears = 0;
};

/// Aggregated class-computation figures for the whole batch (volatile: they
/// record which compatibility path decided each column pair, never anything
/// the results depend on).
struct ClassesReport {
  std::uint64_t signature_pairs = 0;
  std::uint64_t bdd_pairs = 0;
};

/// Aggregated windowed-engine figures for the whole batch (reported in the
/// volatile sections next to the other engine blocks, though the counters
/// themselves are schedule-independent — see core::FlowStats).
struct WindowsReport {
  std::uint64_t extracted = 0;
  std::uint64_t resynthesized = 0;
  std::uint64_t passthrough = 0;
  std::uint64_t budget_fallbacks = 0;
  std::uint64_t split = 0;
  std::uint64_t verify_failures = 0;
  int peak_inputs = 0;  ///< max over jobs
  int peak_nodes = 0;   ///< max over jobs
  // Scheduling telemetry (genuinely volatile: thread count, steal pattern
  // and wall clock).
  std::uint64_t extract_parallel = 0;  ///< snapshots materialized on workers
  std::uint64_t steals = 0;            ///< window tasks stolen across deques
  int workers = 0;                     ///< max scheduler workers over jobs
  double worker_busy_seconds = 0.0;       ///< summed worker busy time
  double worker_busy_peak_seconds = 0.0;  ///< busiest single worker, max over jobs
  double max_window_seconds = 0.0;  ///< slowest single window over the batch
};

struct RunReport {
  int verify_vectors = 0;
  std::vector<JobReport> jobs;  ///< submission order, independent of finish order
  CacheReport cache;
  StoreReport store;         ///< volatile; persistent-cache runs only
  BddKernelReport bdd;       ///< volatile
  SearchReport search;       ///< volatile
  ClassesReport classes;     ///< volatile
  WindowsReport windows;     ///< volatile section; windowed jobs only
  int workers = 1;           ///< volatile
  double wall_seconds = 0.0;  ///< volatile

  bool all_ok() const {
    for (const JobReport& job : jobs) {
      if (!job.error.empty() || !job.verified) return false;
    }
    return true;
  }
};

/// Deterministically formatted JSON. With include_volatile=false the output
/// is bit-identical across worker counts and schedules for the same batch.
std::string to_json(const RunReport& report, bool include_volatile = true);

/// One CSV row per job (header included; volatile seconds column last).
std::string to_csv(const RunReport& report);

}  // namespace hyde::runtime
