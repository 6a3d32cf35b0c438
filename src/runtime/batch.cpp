#include "runtime/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>

#include <memory>

#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "runtime/npn_cache.hpp"
#include "runtime/scheduler.hpp"
#include "store/persistent_cache.hpp"

namespace hyde::runtime {

namespace {

/// Whole-job replay blob: the deterministic JobReport subset as fixed-width
/// little-endian u64 fields. Volatile counters (bdd_*, search_*, wall-clock
/// phases) are deliberately absent — a replayed job reports zeros there, and
/// the deterministic JSON/CSV subset is bit-identical to the cold run by
/// construction. Strict decode: any size mismatch rejects the blob.
constexpr std::size_t kJobBlobFields = 11;

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::vector<std::uint8_t> serialize_job_outcome(const JobReport& job) {
  std::vector<std::uint8_t> out;
  out.reserve(kJobBlobFields * 8);
  put_u64le(out, static_cast<std::uint64_t>(job.luts));
  put_u64le(out, static_cast<std::uint64_t>(job.clbs));
  put_u64le(out, static_cast<std::uint64_t>(job.depth));
  put_u64le(out, job.verified ? 1 : 0);
  put_u64le(out, static_cast<std::uint64_t>(job.stats.decomposition_steps));
  put_u64le(out, static_cast<std::uint64_t>(job.stats.shannon_fallbacks));
  put_u64le(out, static_cast<std::uint64_t>(job.stats.hyper_groups));
  put_u64le(out, static_cast<std::uint64_t>(job.stats.encoder_runs));
  put_u64le(out, static_cast<std::uint64_t>(job.stats.encoder_random_kept));
  put_u64le(out, job.stats.collapse_mode ? 1 : 0);
  put_u64le(out, static_cast<std::uint64_t>(job.stats.cache_lookups));
  return out;
}

bool deserialize_job_outcome(const std::vector<std::uint8_t>& raw,
                             JobReport* job) {
  if (raw.size() != kJobBlobFields * 8) return false;
  std::size_t at = 0;
  const auto next = [&raw, &at] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{raw[at + static_cast<std::size_t>(i)]} << (8 * i);
    at += 8;
    return v;
  };
  job->luts = static_cast<int>(next());
  job->clbs = static_cast<int>(next());
  job->depth = static_cast<int>(next());
  job->verified = next() != 0;
  job->stats.decomposition_steps = static_cast<int>(next());
  job->stats.shannon_fallbacks = static_cast<int>(next());
  job->stats.hyper_groups = static_cast<int>(next());
  job->stats.encoder_runs = static_cast<int>(next());
  job->stats.encoder_random_kept = static_cast<int>(next());
  job->stats.collapse_mode = next() != 0;
  job->stats.cache_lookups = static_cast<int>(next());
  return true;
}

/// Digest of everything a job's deterministic outcome depends on: the input
/// circuit's full BLIF text plus every result-affecting batch knob. The
/// worker count has a result-identity contract and is excluded — replaying
/// across it is the point. Goes into the blob key, so a mismatch is a clean miss.
std::uint64_t job_fingerprint(const BatchJob& job, const BatchOptions& options,
                              const std::string& blif_text) {
  std::uint64_t h = store::fnv1a_bytes(
      reinterpret_cast<const std::uint8_t*>(blif_text.data()),
      blif_text.size());
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(job.system));
  mix(static_cast<std::uint64_t>(job.k));
  mix(job.seed);
  mix(static_cast<std::uint64_t>(options.verify_vectors));
  mix(static_cast<std::uint64_t>(options.cache_max_support));
  mix(static_cast<std::uint64_t>(options.reorder));
  std::uint64_t growth_bits = 0;
  static_assert(sizeof(growth_bits) == sizeof(options.reorder_max_growth));
  std::memcpy(&growth_bits, &options.reorder_max_growth, sizeof(growth_bits));
  mix(growth_bits);
  return h;
}

/// Human-greppable blob name for a job (the fingerprint rides in the key
/// separately): circuit and system names NUL-separated to keep distinct
/// (circuit, system) pairs from concatenating ambiguously.
std::vector<std::uint8_t> job_blob_name(const BatchJob& job) {
  const std::string text =
      job.circuit + '\0' + std::string(baseline::system_name(job.system));
  return {text.begin(), text.end()};
}

}  // namespace

int default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<BatchJob> suite_jobs(const std::vector<std::string>& circuits,
                                 const std::vector<baseline::System>& systems,
                                 int k, std::uint64_t base_seed) {
  std::vector<BatchJob> jobs;
  jobs.reserve(circuits.size() * systems.size());
  for (const std::string& circuit : circuits) {
    for (baseline::System system : systems) {
      jobs.push_back(BatchJob{circuit, system, k, base_seed});
    }
  }
  return jobs;
}

RunReport run_batch(const std::vector<BatchJob>& jobs,
                    const BatchOptions& options) {
  RunReport report;
  report.workers = options.workers < 1 ? 1 : options.workers;
  report.verify_vectors = options.verify_vectors;
  report.jobs.resize(jobs.size());
  report.cache.enabled = options.use_cache;
  report.cache.max_support = options.cache_max_support;

  NpnResultCache cache;
  core::DecompCache* shared_cache = options.use_cache ? &cache : nullptr;
  // Optional persistent second level: the tiered view layers the on-disk
  // store behind the in-memory cache through the same DecompCache interface,
  // so jobs are oblivious to where an entry came from.
  std::unique_ptr<store::PersistentStore> disk_store;
  std::unique_ptr<store::TieredCache> tiered;
  if (options.use_cache && !options.cache_dir.empty()) {
    disk_store = std::make_unique<store::PersistentStore>(store::StoreOptions{
        options.cache_dir, options.cache_readonly, options.cache_max_bytes});
    tiered = std::make_unique<store::TieredCache>(&cache, disk_store.get());
    shared_cache = tiered.get();
  }
  const auto start = std::chrono::steady_clock::now();
  {
    JobScheduler pool(report.workers);
    store::PersistentStore* job_store = disk_store.get();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pool.submit([&jobs, &report, &options, shared_cache, job_store, i] {
        const BatchJob& job = jobs[i];
        JobReport& out = report.jobs[i];
        out.circuit = job.circuit;
        out.system = baseline::system_name(job.system);
        out.k = job.k;
        out.seed = job.seed;
        try {
          const auto job_start = std::chrono::steady_clock::now();
          const net::Network input = mcnc::make_circuit(job.circuit);
          std::uint64_t fingerprint = 0;
          std::vector<std::uint8_t> name;
          if (job_store != nullptr) {
            // Whole-job replay tier: a finished outcome committed by an
            // earlier process under the same content + options fingerprint
            // is served straight from disk, skipping synthesis entirely.
            fingerprint =
                job_fingerprint(job, options, net::write_blif_string(input));
            name = job_blob_name(job);
            if (const auto raw = job_store->lookup_blob(
                    store::ArtifactKind::kBatchJobOutcome, name, fingerprint)) {
              if (deserialize_job_outcome(*raw, &out)) {
                out.seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - job_start)
                                  .count();
                return;
              }
            }
          }
          const baseline::BaselineResult result = baseline::run_system(
              input, job.system, job.k, options.verify_vectors, job.seed,
              shared_cache, options.cache_max_support, options.reorder,
              options.reorder_max_growth);
          out.luts = result.luts;
          out.clbs = result.clbs;
          out.depth = result.depth;
          out.verified = result.verified;
          out.seconds = result.seconds;
          out.stats = result.stats;
          // Only clean, verified outcomes are worth replaying; failures are
          // recomputed every run so they keep surfacing.
          if (job_store != nullptr && out.verified) {
            job_store->put_blob(store::ArtifactKind::kBatchJobOutcome, name,
                                fingerprint, serialize_job_outcome(out));
          }
        } catch (const std::exception& e) {
          out.error = e.what();
        } catch (...) {
          out.error = "unknown exception";
        }
      });
    }
    pool.wait_idle();
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const JobReport& job : report.jobs) {
    report.cache.flow_lookups +=
        static_cast<std::uint64_t>(job.stats.cache_lookups);
    report.bdd.cache_hits += job.stats.bdd_cache_hits;
    report.bdd.cache_misses += job.stats.bdd_cache_misses;
    report.bdd.cache_overwrites += job.stats.bdd_cache_overwrites;
    report.bdd.gc_runs += job.stats.bdd_gc_runs;
    report.bdd.reorder_runs += job.stats.bdd_reorder_runs;
    if (job.stats.bdd_peak_live_nodes > report.bdd.peak_live_nodes) {
      report.bdd.peak_live_nodes = job.stats.bdd_peak_live_nodes;
    }
    report.search.selects += job.stats.search_selects;
    report.search.candidates_evaluated += job.stats.search_candidates_evaluated;
    report.search.memo_hits += job.stats.search_memo_hits;
    report.search.memo_clears += job.stats.search_memo_clears;
    report.classes.signature_pairs += job.stats.class_signature_pairs;
    report.classes.bdd_pairs += job.stats.class_bdd_pairs;
    report.windows.extracted +=
        static_cast<std::uint64_t>(job.stats.windows_extracted);
    report.windows.resynthesized +=
        static_cast<std::uint64_t>(job.stats.windows_resynthesized);
    report.windows.passthrough +=
        static_cast<std::uint64_t>(job.stats.windows_passthrough);
    report.windows.budget_fallbacks +=
        static_cast<std::uint64_t>(job.stats.windows_budget_fallbacks);
    report.windows.split +=
        static_cast<std::uint64_t>(job.stats.windows_split);
    report.windows.verify_failures +=
        static_cast<std::uint64_t>(job.stats.windows_verify_failures);
    report.windows.peak_inputs =
        std::max(report.windows.peak_inputs, job.stats.window_peak_inputs);
    report.windows.peak_nodes =
        std::max(report.windows.peak_nodes, job.stats.window_peak_nodes);
    report.windows.extract_parallel +=
        static_cast<std::uint64_t>(job.stats.windows_extract_parallel);
    report.windows.steals += job.stats.window_steals;
    report.windows.workers =
        std::max(report.windows.workers, job.stats.window_workers);
    report.windows.worker_busy_seconds += job.stats.window_worker_busy_seconds;
    report.windows.worker_busy_peak_seconds =
        std::max(report.windows.worker_busy_peak_seconds,
                 job.stats.window_worker_busy_peak_seconds);
    report.windows.max_window_seconds =
        std::max(report.windows.max_window_seconds,
                 job.stats.window_max_seconds);
  }
  report.cache.unique_functions = cache.size();
  const NpnCacheCounters counters = cache.counters();
  report.cache.hits = counters.hits;
  report.cache.misses = counters.misses;
  report.cache.races_lost = counters.races_lost;
  if (disk_store != nullptr) {
    // Commit before snapshotting so `records` reflects what later runs will
    // actually find on disk.
    disk_store->flush();
    const store::StoreCounters sc = disk_store->counters();
    report.store.enabled = true;
    report.store.readonly = options.cache_readonly;
    report.store.disk_hits = sc.disk_hits;
    report.store.disk_misses = sc.disk_misses;
    report.store.bytes_read = sc.bytes_read;
    report.store.bytes_written = sc.bytes_written;
    report.store.raw_bytes = sc.raw_bytes;
    report.store.coded_bytes = sc.coded_bytes;
    report.store.evictions = sc.evictions;
    report.store.corrupt_records = sc.corrupt_records;
    report.store.appends = sc.appends;
    report.store.records = sc.records;
    report.store.job_hits = sc.job_hits;
    report.store.job_appends = sc.job_appends;
  }
  return report;
}

}  // namespace hyde::runtime
