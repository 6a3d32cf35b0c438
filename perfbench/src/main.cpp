/// \file main.cpp
/// \brief hyde_perfbench: the end-to-end benchmark of HYDE.
///
///   hyde_perfbench --workload <suite|suite_cached|windowed_scale>
///                  [--seed n] [--seconds s] [--trace 0|1] [--out dir]
///
/// Each workload is a closed loop on one worker per CPU. With --trace 0 the
/// benchmark repeats whole passes until --seconds have passed and reports
/// the end-to-end metrics as medians over the passes. With --trace 1 it runs
/// one untraced pass and one traced pass, checks that they agree, writes the
/// spans as Chrome trace-event JSON under --out and reports the per-layer
/// metrics. Every run checks the program's outputs. The last line of
/// standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// See perfbench/README.md for the metrics and workloads.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/flows.hpp"
#include "layers.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "probe_cache.hpp"
#include "runtime/batch.hpp"
#include "runtime/npn_cache.hpp"
#include "runtime/scheduler.hpp"
#include "scale.hpp"
#include "store/persistent_cache.hpp"
#include "trace.hpp"
#include "tt/npn.hpp"

namespace {

namespace fs = std::filesystem;
using hyde::baseline::System;
using hyde::runtime::BatchJob;
using hyde::runtime::BatchOptions;
using hyde::runtime::RunReport;
using perfbench::LayerOutcome;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr int kLutSize = 5;
/// Every flow runs at seed 1, the seed the paper tables are reproduced at,
/// and every input is fixed, so --seed selects nothing: under other flow
/// seeds HYDE's CLB total can exceed FGSyn-like's (the paper-shape check
/// would fail for reasons of seed noise), other job orders move wall time by
/// where the longest jobs land in the queue, and other windowed seeds move
/// the work itself; each would widen the run-to-run spread without
/// measuring the program.
constexpr std::uint64_t kFlowSeed = 1;
constexpr int kSuiteVerifyVectors = 128;
constexpr int kWindowedVerifyVectors = 256;

const std::vector<System> kAllSystems = {
    System::kHyde, System::kImodecLike, System::kFgsynLike,
    System::kSawadaLike, System::kSawadaResubLike};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Median wall time of \p reps calls of \p fn.
double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    times.push_back(since(start));
  }
  return median(times);
}

/// Restarts the kernel's peak-RSS watermark, so that neither the input
/// generators nor earlier passes count toward a pass's peak. Best effort:
/// without it the peak is the process's.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Result ------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},         {"jobs_per_s", "1/s"}, {"nodes_per_s", "1/s"},
    {"warm_wall_s", "s"},    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
    {"luts", "count"},       {"clbs", "count"},     {"depth", "count"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"net.parse_s", "s"},
    {"net.verify_s", "s"},
    {"net.verify_formal", "count"},
    {"net.verify_exhaustive", "count"},
    {"net.verify_random", "count"},
    {"net.proven_frac", "ratio"},
    {"net.write_s", "s"},
    {"decomp.varpart_s", "s"},
    {"decomp.classes_s", "s"},
    {"decomp.candidates_evaluated", "count"},
    {"decomp.prune_ratio", "ratio"},
    {"decomp.memo_hit_ratio", "ratio"},
    {"decomp.class_signature_pairs", "count"},
    {"decomp.class_bdd_pairs", "count"},
    {"core.flow_s", "s"},
    {"core.encoding_s", "s"},
    {"core.decomposition_steps", "count"},
    {"core.shannon_fallbacks", "count"},
    {"core.hyper_groups", "count"},
    {"core.encoder_runs", "count"},
    {"core.encoder_random_kept", "count"},
    {"tt.npn_canonize_s", "s"},
    {"tt.npn_canonize_calls", "count"},
    {"runtime.npn_lookups", "count"},
    {"runtime.npn_hit_ratio", "ratio"},
    {"runtime.npn_fill_s", "s"},
    {"runtime.npn_lock_s", "s"},
    {"runtime.job_max_s", "s"},
    {"runtime.queue_wait_s", "s"},
    {"runtime.worker_busy_frac", "ratio"},
    {"store.replay_s", "s"},
    {"store.job_replays", "count"},
    {"store.disk_hits", "count"},
    {"store.appends", "count"},
    {"store.bytes", "bytes"},
    {"store.codec_ratio", "ratio"},
    {"mapper.cleanup_s", "s"},
    {"mapper.resub_s", "s"},
    {"mapper.pack_s", "s"},
    {"mapper.unmapped_nodes", "count"},
    {"part.flow_s", "s"},
    {"part.extract_s", "s"},
    {"part.stitch_s", "s"},
    {"part.worker_busy_s", "s"},
    {"part.worker_busy_peak_s", "s"},
    {"part.steals", "count"},
    {"part.window_max_s", "s"},
    {"part.serial_tail_frac", "ratio"},
    {"part.resynthesized", "count"},
    {"part.passthrough", "count"},
    {"part.split", "count"},
    {"part.budget_fallbacks", "count"},
    {"part.verify_failures", "count"},
    {"bdd.cache_hit_ratio", "ratio"},
    {"bdd.gc_runs", "count"},
    {"bdd.peak_live_nodes", "count"},
    {"rollup.setup_s", "s"},
    {"rollup.net_s", "s"},
    {"rollup.decomp_s", "s"},
    {"rollup.core_s", "s"},
    {"rollup.runtime_s", "s"},
    {"rollup.store_s", "s"},
    {"rollup.mapper_s", "s"},
    {"rollup.part_s", "s"},
    {"rollup.unattributed_s", "s"},
    {"rollup.busy_s", "s"},
    {"rollup.attributed_frac", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Metrics and verdicts of one run. Every metric of the active set is
/// printed; the ones a workload does not touch read 0.
class Result {
 public:
  explicit Result(const std::vector<MetricSpec>& specs) : specs_(specs) {}

  void set(const std::string& name, double value) {
    for (const MetricSpec& spec : specs_) {
      if (name == spec.name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("unknown metric " + name);
  }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  void jobs(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print() const {
    for (const MetricSpec& spec : specs_) {
      std::fprintf(stderr, "  %-30s %.6g %s\n", spec.name, value(spec.name),
                   spec.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const MetricSpec& spec : specs_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value(spec.name), spec.unit);
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  double value(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  const std::vector<MetricSpec>& specs_;
  std::map<std::string, double> values_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/out";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "suite" || args->workload == "suite_cached" ||
          args->workload == "windowed_scale");
}

// --- Checks and totals shared by the batch workloads -------------------------

struct Totals {
  double luts = 0;
  double clbs = 0;
  double depth = 0;
};

Totals totals_of(const RunReport& report) {
  Totals t;
  for (const auto& job : report.jobs) {
    t.luts += job.luts;
    t.clbs += job.clbs;
    t.depth += job.depth;
  }
  return t;
}

void count_jobs(const RunReport& report, Result* result) {
  std::uint64_t failed = 0;
  for (const auto& job : report.jobs) {
    if (!job.error.empty() || !job.verified) {
      ++failed;
      std::fprintf(stderr, "job %s/%s failed: %s\n", job.circuit.c_str(),
                   job.system.c_str(),
                   job.error.empty() ? "not verified" : job.error.c_str());
    }
  }
  result->jobs(report.jobs.size(), failed);
  result->check(failed == 0, "every job verified");
}

void print_slowest_job(const RunReport& report) {
  const auto slowest = std::max_element(
      report.jobs.begin(), report.jobs.end(),
      [](const auto& a, const auto& b) { return a.seconds < b.seconds; });
  if (slowest == report.jobs.end()) return;
  std::fprintf(stderr, "batch %.3f s, slowest job %s/%s %.3f s\n",
               report.wall_seconds, slowest->circuit.c_str(),
               slowest->system.c_str(), slowest->seconds);
}

/// The paper's orderings (Tables 1-2) over the suite's totals: HYDE needs no
/// more LUTs than RK-noresub and no more CLBs than IMODEC-like or FGSyn-like.
void check_paper_shapes(const RunReport& report, Result* result) {
  std::map<std::string, Totals> by_system;
  for (const auto& job : report.jobs) {
    by_system[job.system].luts += job.luts;
    by_system[job.system].clbs += job.clbs;
  }
  const auto& hyde = by_system[hyde::baseline::system_name(System::kHyde)];
  const auto& rk = by_system[hyde::baseline::system_name(System::kSawadaLike)];
  const auto& imodec =
      by_system[hyde::baseline::system_name(System::kImodecLike)];
  const auto& fgsyn =
      by_system[hyde::baseline::system_name(System::kFgsynLike)];
  std::fprintf(stderr,
               "paper shapes: HYDE %.0f LUTs vs RK-noresub %.0f; HYDE %.0f "
               "CLBs vs IMODEC-like %.0f, FGSyn-like %.0f\n",
               hyde.luts, rk.luts, hyde.clbs, imodec.clbs, fgsyn.clbs);
  result->check(hyde.luts <= rk.luts, "HYDE LUTs <= RK-noresub LUTs");
  result->check(hyde.clbs <= imodec.clbs && hyde.clbs <= fgsyn.clbs,
                "HYDE CLBs <= IMODEC-like and FGSyn-like CLBs");
}

/// Deterministic digest of a batch: the report's deterministic JSON subset.
std::uint64_t batch_digest(const RunReport& report) {
  return fnv1a(kFnvBasis, hyde::runtime::to_json(report, false));
}

/// Counts the traced jobs and checks their LUTs, CLBs, depth and verdict
/// against the untraced run's.
void check_same_jobs(const RunReport& reference,
                     const std::vector<LayerOutcome>& traced, Result* result) {
  std::uint64_t failed = 0;
  for (const LayerOutcome& o : traced) {
    if (!o.error.empty()) {
      std::fprintf(stderr, "traced job failed: %s\n", o.error.c_str());
    }
    if (!o.error.empty() || !o.verified) ++failed;
  }
  result->jobs(traced.size(), failed);
  result->check(failed == 0, "every traced job verified");
  bool same = reference.jobs.size() == traced.size();
  for (std::size_t i = 0; same && i < traced.size(); ++i) {
    const auto& a = reference.jobs[i];
    const auto& b = traced[i];
    same = a.luts == b.luts && a.clbs == b.clbs && a.depth == b.depth &&
           a.verified == b.verified && a.error.empty();
    if (!same) {
      std::fprintf(stderr, "traced job %s/%s differs: %d/%d/%d vs %d/%d/%d\n",
                   a.circuit.c_str(), a.system.c_str(), a.luts, a.clbs,
                   a.depth, b.luts, b.clbs, b.depth);
    }
  }
  result->check(same, "traced run reproduces every job's LUTs, CLBs, depth");
}

// --- Batch inputs ------------------------------------------------------------

struct BatchInputs {
  std::vector<std::string> circuits;
  std::vector<System> systems;
  double input_nodes = 0;  ///< logic nodes over all jobs' input networks
};

/// Generates the inputs once, outside any timer: the registry circuits are
/// built only to count their logic nodes.
BatchInputs batch_inputs(const std::vector<System>& systems) {
  BatchInputs in;
  in.circuits = hyde::mcnc::all_circuits();
  in.systems = systems;
  for (const std::string& name : in.circuits) {
    in.input_nodes += static_cast<double>(
        hyde::mcnc::make_circuit(name).num_logic_nodes() * systems.size());
  }
  return in;
}

/// The batch's job list, in registry order (the order hyde_cli --batch
/// submits).
std::vector<BatchJob> job_list(const BatchInputs& in) {
  return hyde::runtime::suite_jobs(in.circuits, in.systems, kLutSize,
                                   kFlowSeed);
}

// --- Traced-run rollup -------------------------------------------------------

/// Self time per module over the traced pass. Root spans named "job" or
/// "pass" hold no layer call themselves: their self time is the explicit
/// unattributed remainder. Busy time is the summed duration of root spans.
struct Rollup {
  std::map<std::string, double> self;
  double busy = 0.0;
  double unattributed = 0.0;

  void move(const std::string& from, const std::string& to, double seconds) {
    self[from] -= seconds;
    self[to] += seconds;
  }
};

Rollup rollup_of(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.seconds();
    }
  }
  Rollup r;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self = spans[i].seconds() - children[i];
    const std::string module = spans[i].module();
    if (module == "job" || module == "pass") {
      r.unattributed += self;
    } else {
      r.self[module] += self;
    }
    if (spans[i].parent < 0) r.busy += spans[i].seconds();
  }
  return r;
}

double span_seconds(const std::vector<Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (const Span& span : spans) {
    if (name == span.name) sum += span.seconds();
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_rollup(const Rollup& r, Result* result) {
  for (const char* module : {"setup", "net", "decomp", "core", "runtime",
                             "store", "mapper", "part"}) {
    const auto it = r.self.find(module);
    result->set(std::string("rollup.") + module + "_s",
                it == r.self.end() ? 0.0 : it->second);
  }
  double named = 0.0;
  for (const auto& [module, seconds] : r.self) named += seconds;
  result->set("rollup.unattributed_s", r.unattributed);
  result->set("rollup.busy_s", r.busy);
  const double frac = ratio(named, r.busy);
  result->set("rollup.attributed_frac", frac);
  result->check(frac >= 0.95,
                "named layers and set-up cover >= 95% of busy time");
  for (const auto& [module, seconds] : r.self) {
    result->check(seconds >= -1e-3, "non-negative self time for " + module);
  }
}

/// Program counters of the flows a pass ran (FlowStats), summed.
void report_flow_stats(const hyde::core::FlowStats& s, Result* result) {
  result->set("decomp.varpart_s", s.varpart_seconds);
  result->set("decomp.classes_s", s.classes_seconds);
  result->set("decomp.candidates_evaluated",
              static_cast<double>(s.search_candidates_evaluated));
  result->set("decomp.prune_ratio",
              ratio(static_cast<double>(s.search_candidates_pruned),
                    static_cast<double>(s.search_candidates_evaluated)));
  result->set("decomp.memo_hit_ratio",
              ratio(static_cast<double>(s.search_memo_hits),
                    static_cast<double>(s.search_memo_hits +
                                        s.search_candidates_evaluated)));
  result->set("decomp.class_signature_pairs",
              static_cast<double>(s.class_signature_pairs));
  result->set("decomp.class_bdd_pairs", static_cast<double>(s.class_bdd_pairs));
  result->set("core.encoding_s", s.encoding_seconds);
  result->set("core.decomposition_steps", s.decomposition_steps);
  result->set("core.shannon_fallbacks", s.shannon_fallbacks);
  result->set("core.hyper_groups", s.hyper_groups);
  result->set("core.encoder_runs", s.encoder_runs);
  result->set("core.encoder_random_kept", s.encoder_random_kept);
  result->set("bdd.cache_hit_ratio",
              ratio(static_cast<double>(s.bdd_cache_hits),
                    static_cast<double>(s.bdd_cache_hits +
                                        s.bdd_cache_misses)));
  result->set("bdd.gc_runs", static_cast<double>(s.bdd_gc_runs));
  result->set("bdd.peak_live_nodes",
              static_cast<double>(s.bdd_peak_live_nodes));
}

void report_verdicts(const std::vector<LayerOutcome>& outcomes,
                     Result* result) {
  double formal = 0, exhaustive = 0, random = 0, unmapped = 0;
  for (const LayerOutcome& o : outcomes) {
    switch (o.method) {
      case hyde::net::EquivalenceMethod::kFormalBdd: formal += 1; break;
      case hyde::net::EquivalenceMethod::kExhaustiveSim: exhaustive += 1; break;
      case hyde::net::EquivalenceMethod::kRandomSim: random += 1; break;
    }
    unmapped += o.unmapped_nodes;
  }
  result->set("net.verify_formal", formal);
  result->set("net.verify_exhaustive", exhaustive);
  result->set("net.verify_random", random);
  result->set("net.proven_frac",
              ratio(formal + exhaustive, formal + exhaustive + random));
  result->set("mapper.unmapped_nodes", unmapped);
}

void report_layer_spans(const std::vector<Span>& spans, Result* result) {
  result->set("net.parse_s", span_seconds(spans, "net.parse"));
  result->set("net.verify_s", span_seconds(spans, "net.verify"));
  result->set("net.write_s", span_seconds(spans, "net.write"));
  result->set("mapper.cleanup_s", span_seconds(spans, "mapper.cleanup"));
  result->set("mapper.resub_s", span_seconds(spans, "mapper.resub"));
  result->set("mapper.pack_s", span_seconds(spans, "mapper.pack"));
}

void write_trace(const Tracer& tracer, const Args& args) {
  const std::string path = args.out + "/trace_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".json";
  if (tracer.write_chrome_json(path)) {
    std::fprintf(stderr, "trace written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

/// Per-thread queue-wait accumulator for the traced batch passes.
struct Waits {
  double queue_wait = 0.0;
};

/// Runs \p jobs as run_batch does, on a JobScheduler with \p workers
/// threads, each job body split into its layer calls under a "job" span.
std::vector<LayerOutcome> run_traced_jobs(const std::vector<BatchJob>& jobs,
                                          int workers, int verify_vectors,
                                          hyde::core::DecompCache* cache,
                                          double* queue_wait) {
  std::vector<LayerOutcome> outcomes(jobs.size());
  perfbench::PerThread<Waits> waits;
  {
    hyde::runtime::JobScheduler pool(workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto submitted = Clock::now();
      pool.submit([&, i, submitted] {
        waits.local().queue_wait += since(submitted);
        ScopedSpan span("job", static_cast<int>(i));
        try {
          outcomes[i] = perfbench::traced_job(jobs[i], verify_vectors, cache);
        } catch (const std::exception& e) {
          outcomes[i].error = e.what();
        }
      });
    }
    pool.wait_idle();
  }
  waits.for_each([queue_wait](const Waits& w) { *queue_wait += w.queue_wait; });
  return outcomes;
}

hyde::core::FlowStats summed_stats(const std::vector<LayerOutcome>& outcomes) {
  hyde::core::FlowStats sum;
  for (const LayerOutcome& o : outcomes) {
    const hyde::core::FlowStats& s = o.stats;
    sum.decomposition_steps += s.decomposition_steps;
    sum.shannon_fallbacks += s.shannon_fallbacks;
    sum.hyper_groups += s.hyper_groups;
    sum.encoder_runs += s.encoder_runs;
    sum.encoder_random_kept += s.encoder_random_kept;
    sum.absorb_search_and_phases(s);
    sum.bdd_cache_hits += s.bdd_cache_hits;
    sum.bdd_cache_misses += s.bdd_cache_misses;
    sum.bdd_gc_runs += s.bdd_gc_runs;
    sum.bdd_peak_live_nodes =
        std::max(sum.bdd_peak_live_nodes, s.bdd_peak_live_nodes);
  }
  return sum;
}

/// Batch-level figures of a traced pass: slowest job, busy fraction, and
/// the decomposition phases moved out of core.run_flow's self time.
void report_traced_batch(const std::vector<Span>& spans,
                         const std::vector<LayerOutcome>& outcomes,
                         double wall, double queue_wait, int workers,
                         Rollup* rollup, Result* result) {
  double job_max = 0.0;
  double job_busy = 0.0;
  for (const Span& span : spans) {
    if (std::string(span.name) == "job") {
      job_max = std::max(job_max, span.seconds());
      job_busy += span.seconds();
    }
  }
  result->set("runtime.job_max_s", job_max);
  result->set("runtime.queue_wait_s", queue_wait);
  result->set("runtime.worker_busy_frac", ratio(job_busy, workers * wall));
  result->set("core.flow_s", span_seconds(spans, "core.run_flow"));
  const hyde::core::FlowStats stats = summed_stats(outcomes);
  report_flow_stats(stats, result);
  report_verdicts(outcomes, result);
  report_layer_spans(spans, result);
  rollup->move("core", "decomp", stats.varpart_seconds + stats.classes_seconds);
  result->set("trace.wall_s", wall);
}

// --- Workloads ---------------------------------------------------------------

struct Ctx {
  Args args;
  int workers = 1;
  Result* result = nullptr;
};

/// Repeats whole passes until the run's time is used; the last pass may end
/// after it. Returns each pass's peak RSS in MB, counted from its start.
std::vector<double> repeat_passes(const Ctx& ctx,
                                  const std::function<void(int)>& pass) {
  std::vector<double> peaks;
  const auto start = Clock::now();
  int i = 0;
  do {
    reset_peak_rss();
    pass(i++);
    peaks.push_back(peak_rss_mb());
  } while (since(start) < ctx.args.seconds);
  return peaks;
}

void print_passes(const std::vector<double>& walls) {
  std::fprintf(stderr, "%zu passes:", walls.size());
  for (double w : walls) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr, " s\n");
}

void report_batch_e2e(const Ctx& ctx, const BatchInputs& in,
                      const std::vector<double>& walls,
                      const std::vector<double>& warm_walls, double setup,
                      const std::vector<double>& peaks, const Totals& totals) {
  const double wall = median(walls);
  const double jobs =
      static_cast<double>(in.circuits.size() * in.systems.size());
  ctx.result->set("wall_s", wall);
  ctx.result->set("jobs_per_s", jobs / wall);
  ctx.result->set("nodes_per_s", in.input_nodes / wall);
  ctx.result->set("warm_wall_s", median(warm_walls));
  ctx.result->set("setup_s", setup);
  ctx.result->set("peak_rss_mb", median(peaks));
  ctx.result->set("luts", totals.luts);
  ctx.result->set("clbs", totals.clbs);
  ctx.result->set("depth", totals.depth);
  print_passes(walls);
}

constexpr int kSetupReps = 200;

BatchOptions suite_options(int workers) {
  BatchOptions options;
  options.workers = workers;
  options.verify_vectors = kSuiteVerifyVectors;
  options.use_cache = false;
  return options;
}

/// suite: the 25 registry circuits x all five systems, NPN cache off. A
/// pass builds the job list, runs the batch and writes its report.
void run_suite(const Ctx& ctx) {
  Result& result = *ctx.result;
  const BatchInputs in = batch_inputs(kAllSystems);
  const BatchOptions options = suite_options(ctx.workers);

  std::vector<double> walls;
  std::uint64_t digest = 0;
  Totals totals;
  const std::vector<double> peaks = repeat_passes(ctx, [&](int pass) {
    const auto start = Clock::now();
    const auto jobs = job_list(in);
    const RunReport report = hyde::runtime::run_batch(jobs, options);
    (void)hyde::runtime::to_json(report);
    walls.push_back(since(start));
    count_jobs(report, &result);
    print_slowest_job(report);
    const std::uint64_t d = batch_digest(report);
    if (pass == 0) {
      digest = d;
      totals = totals_of(report);
      check_paper_shapes(report, &result);
    }
    result.check(d == digest, "deterministic report identical across passes");
  });
  // Set-up: the job list plus starting and stopping a worker pool of the
  // size run_batch starts.
  const double setup = median_time(kSetupReps, [&] {
    (void)job_list(in);
    hyde::runtime::JobScheduler pool(ctx.workers);
  });
  // Nothing persists between suite passes: the warm pass is the pass.
  report_batch_e2e(ctx, in, walls, walls, setup, peaks, totals);
}

void trace_suite(const Ctx& ctx) {
  Result& result = *ctx.result;
  const BatchInputs in = batch_inputs(kAllSystems);
  const BatchOptions options = suite_options(ctx.workers);

  const auto ref_start = Clock::now();
  const RunReport reference =
      hyde::runtime::run_batch(job_list(in), options);
  (void)hyde::runtime::to_json(reference);
  const double ref_wall = since(ref_start);
  count_jobs(reference, &result);

  Tracer tracer;
  const auto start = Clock::now();
  std::vector<BatchJob> jobs;
  {
    ScopedSpan span("setup.jobs");
    jobs = job_list(in);
  }
  double queue_wait = 0.0;
  const std::vector<LayerOutcome> outcomes = run_traced_jobs(
      jobs, ctx.workers, kSuiteVerifyVectors, nullptr, &queue_wait);
  const double wall = since(start);

  check_same_jobs(reference, outcomes, &result);
  const std::vector<Span> spans = tracer.spans();
  Rollup rollup = rollup_of(spans);
  report_traced_batch(spans, outcomes, wall, queue_wait, ctx.workers, &rollup,
                      &result);
  report_rollup(rollup, &result);
  result.set("trace.overhead_s", wall - ref_wall);
  write_trace(tracer, ctx.args);
}

BatchOptions cached_options(int workers, const std::string& dir) {
  BatchOptions options;  // the batch defaults: NPN cache on
  options.workers = workers;
  options.cache_dir = dir;
  return options;
}

std::string fresh_dir(const Ctx& ctx, const std::string& tag) {
  const std::string dir = ctx.args.out + "/store_" + ctx.args.workload + "_" +
                          tag;
  fs::remove_all(dir);
  return dir;
}

/// Warm passes per cold pass: a warm pass takes milliseconds, so its median
/// needs many samples.
constexpr int kWarmReps = 100;

/// One cold pass into a fresh store directory, then kWarmReps warm passes
/// over it. Checks every job of every pass, and that each warm pass replays
/// every job and reports byte-identically to the cold pass.
struct CachedPass {
  RunReport cold;
  double cold_wall = 0.0;
  std::vector<double> warm_walls;
};

CachedPass cached_pass(const Ctx& ctx, const BatchInputs& in,
                       const std::string& dir) {
  Result& result = *ctx.result;
  CachedPass p;
  const BatchOptions options = cached_options(ctx.workers, dir);
  auto start = Clock::now();
  p.cold = hyde::runtime::run_batch(job_list(in), options);
  (void)hyde::runtime::to_json(p.cold);
  p.cold_wall = since(start);
  count_jobs(p.cold, &result);
  print_slowest_job(p.cold);
  const std::string cold_json = hyde::runtime::to_json(p.cold, false);
  for (int rep = 0; rep < kWarmReps; ++rep) {
    start = Clock::now();
    const RunReport warm = hyde::runtime::run_batch(job_list(in), options);
    (void)hyde::runtime::to_json(warm);
    p.warm_walls.push_back(since(start));
    count_jobs(warm, &result);
    result.check(hyde::runtime::to_json(warm, false) == cold_json,
                 "warm deterministic report byte-identical to the cold one");
    result.check(warm.store.job_hits == warm.jobs.size(),
                 "warm pass replays every job from the store");
  }
  return p;
}

/// suite_cached: the 25 circuits x HYDE with the batch defaults and a
/// persistent store in a fresh directory; each pass is cold then warm.
void run_suite_cached(const Ctx& ctx) {
  Result& result = *ctx.result;
  const BatchInputs in = batch_inputs({System::kHyde});

  std::vector<double> walls;
  std::vector<double> warm_walls;
  std::vector<double> setups;
  std::uint64_t digest = 0;
  Totals totals;
  const std::vector<double> peaks = repeat_passes(ctx, [&](int pass) {
    const std::string dir = fresh_dir(ctx, std::to_string(pass));
    const CachedPass p = cached_pass(ctx, in, dir);
    walls.push_back(p.cold_wall);
    warm_walls.insert(warm_walls.end(), p.warm_walls.begin(),
                      p.warm_walls.end());
    const std::uint64_t d = batch_digest(p.cold);
    if (pass == 0) {
      digest = d;
      totals = totals_of(p.cold);
    }
    result.check(d == digest, "deterministic report identical across passes");
    // Set-up: the job list plus opening the store the warm pass reads.
    setups.push_back(median_time(kSetupReps, [&] {
      (void)job_list(in);
      hyde::store::PersistentStore store(
          hyde::store::StoreOptions{dir, /*readonly=*/true, 0});
    }));
    fs::remove_all(dir);
  });
  std::sort(warm_walls.begin(), warm_walls.end());
  std::fprintf(stderr, "%zu warm passes: min %.4f median %.4f max %.4f s\n",
               warm_walls.size(), warm_walls.front(), median(warm_walls),
               warm_walls.back());
  report_batch_e2e(ctx, in, walls, warm_walls, median(setups), peaks,
                   totals);
}

void trace_suite_cached(const Ctx& ctx) {
  Result& result = *ctx.result;
  const BatchInputs in = batch_inputs({System::kHyde});
  const std::string ref_dir = fresh_dir(ctx, "reference");
  const CachedPass reference = cached_pass(ctx, in, ref_dir);
  result.set("store.appends",
             static_cast<double>(reference.cold.store.appends));
  result.set("store.bytes",
             static_cast<double>(reference.cold.store.bytes_written));
  result.set("store.codec_ratio", reference.cold.store.codec_ratio());

  // Traced cold pass: run_batch's set-up (memory cache, store, tiered view)
  // made here, so both cache tiers can be decorated.
  const std::string dir = fresh_dir(ctx, "traced");
  Tracer tracer;
  const auto start = Clock::now();
  std::vector<BatchJob> jobs;
  hyde::runtime::NpnResultCache memory;
  perfbench::ProbeCache memory_probe(&memory, "runtime.npn_lookup",
                                     "runtime.npn_insert", false);
  std::unique_ptr<hyde::store::PersistentStore> disk;
  {
    ScopedSpan span("setup.jobs");
    jobs = job_list(in);
  }
  {
    ScopedSpan span("setup.store_open");
    disk = std::make_unique<hyde::store::PersistentStore>(
        hyde::store::StoreOptions{dir, false, 0});
  }
  hyde::store::TieredCache tiered(&memory_probe, disk.get());
  perfbench::ProbeCache probe(&tiered, "store.lookup", "store.insert", true);
  double queue_wait = 0.0;
  const std::vector<LayerOutcome> outcomes =
      run_traced_jobs(jobs, ctx.workers, BatchOptions{}.verify_vectors,
                      &probe, &queue_wait);
  {
    ScopedSpan span("store.flush");
    result.check(disk->flush(), "store flush");
  }
  const double wall = since(start);
  const hyde::store::StoreCounters disk_counters = disk->counters();

  // Warm pass: job replay is internal to run_batch, so it is one span, over
  // the reference store (the traced cold pass commits templates only).
  RunReport warm;
  const auto warm_start = Clock::now();
  {
    ScopedSpan span("store.replay");
    warm = hyde::runtime::run_batch(jobs, cached_options(ctx.workers, ref_dir));
  }
  const double warm_wall = since(warm_start);
  count_jobs(warm, &result);
  result.check(hyde::runtime::to_json(warm, false) ==
                   hyde::runtime::to_json(reference.cold, false),
               "traced-run warm report byte-identical to the cold one");

  check_same_jobs(reference.cold, outcomes, &result);
  const std::vector<Span> spans = tracer.spans();
  Rollup rollup = rollup_of(spans);
  report_traced_batch(spans, outcomes, wall, queue_wait, ctx.workers, &rollup,
                      &result);
  report_rollup(rollup, &result);
  result.set("trace.overhead_s",
             wall + warm_wall - reference.cold_wall -
                 median(reference.warm_walls));

  const perfbench::ProbeTotals probe_totals = probe.totals();
  result.set("runtime.npn_lookups", static_cast<double>(probe_totals.lookups));
  result.set("runtime.npn_hit_ratio",
             ratio(static_cast<double>(probe_totals.hits),
                   static_cast<double>(probe_totals.lookups)));
  result.set("runtime.npn_fill_s", probe_totals.fill_seconds);
  result.set("runtime.npn_lock_s", memory_probe.totals().call_seconds);
  result.set("store.replay_s", warm_wall);
  result.set("store.job_replays", static_cast<double>(warm.store.job_hits));
  result.set("store.disk_hits",
             static_cast<double>(disk_counters.disk_hits +
                                 warm.store.disk_hits));
  write_trace(tracer, ctx.args);

  // Canonization cost, measured after the pass: tt::npn_canonize once on
  // each distinct key the flows looked up, on the run's workers; the metric
  // sums the calls' durations.
  struct KeyHash {
    std::size_t operator()(const hyde::core::NpnCacheKey& k) const {
      return static_cast<std::size_t>(k.hash());
    }
  };
  const std::unordered_set<hyde::core::NpnCacheKey, KeyHash> distinct(
      probe_totals.keys.begin(), probe_totals.keys.end());
  const std::vector<hyde::core::NpnCacheKey> keys(distinct.begin(),
                                                  distinct.end());
  std::vector<double> canon(keys.size(), 0.0);
  {
    hyde::runtime::JobScheduler pool(ctx.workers);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      pool.submit([&keys, &canon, i] {
        const auto t = Clock::now();
        (void)hyde::tt::npn_canonize(hyde::tt::Isf(keys[i].on, keys[i].dc));
        canon[i] = since(t);
      });
    }
    pool.wait_idle();
  }
  double canon_sum = 0.0;
  for (double seconds : canon) canon_sum += seconds;
  result.set("tt.npn_canonize_s", canon_sum);
  result.set("tt.npn_canonize_calls", static_cast<double>(keys.size()));
  fs::remove_all(dir);
  fs::remove_all(ref_dir);
}

hyde::part::WindowedFlowOptions windowed_options(int workers) {
  // The hyde_cli --in defaults: 12-input, 64-node windows, 2^20-node budget.
  hyde::part::WindowedFlowOptions options;
  options.flow =
      hyde::baseline::system_flow_options(System::kHyde, kLutSize);
  options.flow.seed = kFlowSeed;
  options.threads = workers;
  return options;
}

struct ScaleInputs {
  std::string blif;
  double input_nodes = 0;
};

ScaleInputs scale_inputs() {
  const hyde::net::Network net = perfbench::make_scale_netlist();
  return ScaleInputs{hyde::net::write_blif_string(net),
                     static_cast<double>(net.num_logic_nodes())};
}

std::uint64_t windowed_digest(const std::string& blif, int luts, int clbs,
                              int depth) {
  return fnv1a(kFnvBasis, blif + "|" + std::to_string(luts) + "|" +
                              std::to_string(clbs) + "|" +
                              std::to_string(depth));
}

constexpr int kParseReps = 5;

/// windowed_scale: parse the scale netlist's BLIF, run windowed HYDE with
/// the global cleanup and verification, write the result back to BLIF.
void run_windowed_scale(const Ctx& ctx) {
  Result& result = *ctx.result;
  const ScaleInputs in = scale_inputs();
  const auto options = windowed_options(ctx.workers);

  std::vector<double> walls;
  std::vector<double> parses;
  std::uint64_t digest = 0;
  Totals totals;
  const std::vector<double> peaks = repeat_passes(ctx, [&](int pass) {
    const auto start = Clock::now();
    const hyde::net::Network input = hyde::net::read_blif_string(in.blif);
    parses.push_back(since(start));
    const hyde::baseline::BaselineResult r =
        hyde::baseline::run_windowed_system(input, options,
                                            kWindowedVerifyVectors);
    const std::string written = hyde::net::write_blif_string(r.network);
    walls.push_back(since(start));
    result.jobs(1, r.verified ? 0 : 1);
    result.check(r.verified, "windowed result verified");
    const std::uint64_t d = windowed_digest(written, r.luts, r.clbs, r.depth);
    if (pass == 0) {
      digest = d;
      totals = Totals{static_cast<double>(r.luts), static_cast<double>(r.clbs),
                      static_cast<double>(r.depth)};
    }
    result.check(d == digest,
                 "written BLIF and counts identical across passes");
  });
  const double wall = median(walls);
  result.set("wall_s", wall);
  result.set("jobs_per_s", 1.0 / wall);
  result.set("nodes_per_s", in.input_nodes / wall);
  result.set("warm_wall_s", wall);  // nothing persists between passes
  // Set-up is the parse: a few more parses steady its median.
  for (int rep = 0; rep < kParseReps; ++rep) {
    const auto start = Clock::now();
    (void)hyde::net::read_blif_string(in.blif);
    parses.push_back(since(start));
  }
  result.set("setup_s", median(parses));
  result.set("peak_rss_mb", median(peaks));
  result.set("luts", totals.luts);
  result.set("clbs", totals.clbs);
  result.set("depth", totals.depth);
  print_passes(walls);
}

void trace_windowed_scale(const Ctx& ctx) {
  Result& result = *ctx.result;
  const ScaleInputs in = scale_inputs();
  const auto options = windowed_options(ctx.workers);

  const auto ref_start = Clock::now();
  const hyde::baseline::BaselineResult reference =
      hyde::baseline::run_windowed_system(hyde::net::read_blif_string(in.blif),
                                          options, kWindowedVerifyVectors);
  const std::string ref_blif = hyde::net::write_blif_string(reference.network);
  const double ref_wall = since(ref_start);
  result.check(reference.verified, "windowed result verified");

  Tracer tracer;
  const auto start = Clock::now();
  LayerOutcome out;
  {
    ScopedSpan span("pass", 0);
    out = perfbench::traced_windowed(in.blif, options, kWindowedVerifyVectors);
  }
  const double wall = since(start);
  result.jobs(1, out.verified ? 0 : 1);
  result.check(out.verified, "traced windowed result verified");
  result.check(windowed_digest(out.blif, out.luts, out.clbs, out.depth) ==
                   windowed_digest(ref_blif, reference.luts, reference.clbs,
                                   reference.depth),
               "traced run reproduces the written BLIF, LUTs, CLBs, depth");

  const std::vector<Span> spans = tracer.spans();
  Rollup rollup = rollup_of(spans);
  const hyde::core::FlowStats& s = out.stats;
  const double flow = span_seconds(spans, "part.run_windowed_flow");
  if (s.window_workers > 0) {
    // The main thread waits while the window workers run: count the
    // workers' busy time instead of the wait.
    const double wait =
        flow - s.window_extract_seconds - s.window_stitch_seconds;
    rollup.self["part"] += s.window_worker_busy_seconds - wait;
    rollup.busy += s.window_worker_busy_seconds - wait;
  }
  // Inside the windows, the flows' own phase timers split part's time.
  rollup.move("part", "decomp", s.varpart_seconds + s.classes_seconds);
  rollup.move("part", "core", s.encoding_seconds);
  rollup.move("part", "mapper", s.mapping_seconds);
  report_rollup(rollup, &result);

  report_flow_stats(s, &result);
  report_verdicts({out}, &result);
  report_layer_spans(spans, &result);
  result.set("core.flow_s", s.varpart_seconds + s.classes_seconds +
                                s.encoding_seconds);
  result.set("part.flow_s", flow);
  result.set("part.extract_s", s.window_extract_seconds);
  result.set("part.stitch_s", s.window_stitch_seconds);
  result.set("part.worker_busy_s", s.window_worker_busy_seconds);
  result.set("part.worker_busy_peak_s", s.window_worker_busy_peak_seconds);
  result.set("part.steals", static_cast<double>(s.window_steals));
  result.set("part.window_max_s", s.window_max_seconds);
  result.set("part.serial_tail_frac", ratio(wall - flow, wall));
  result.set("part.resynthesized", s.windows_resynthesized);
  result.set("part.passthrough", s.windows_passthrough);
  result.set("part.split", s.windows_split);
  result.set("part.budget_fallbacks", s.windows_budget_fallbacks);
  result.set("part.verify_failures", s.windows_verify_failures);
  result.set("trace.wall_s", wall);
  result.set("trace.overhead_s", wall - ref_wall);
  write_trace(tracer, ctx.args);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hyde_perfbench --workload "
                 "<suite|suite_cached|windowed_scale> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--out dir]\n");
    return 2;
  }
  try {
    fs::create_directories(args.out);
    Result result(args.trace ? kPerLayer : kEndToEnd);
    Ctx ctx{args, hyde::runtime::default_worker_count(), &result};
    std::fprintf(stderr, "workload %s, seed %llu, %d workers, trace %d\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), ctx.workers,
                 args.trace ? 1 : 0);
    if (args.workload == "suite") {
      args.trace ? trace_suite(ctx) : run_suite(ctx);
    } else if (args.workload == "suite_cached") {
      args.trace ? trace_suite_cached(ctx) : run_suite_cached(ctx);
    } else {
      args.trace ? trace_windowed_scale(ctx) : run_windowed_scale(ctx);
    }
    result.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
