/// \file flow.hpp
/// \brief End-to-end technology-mapping flows: HYDE and the knobs that turn
/// it into the published baselines it is compared against.
///
/// The flow turns an arbitrary Boolean network into a k-feasible network
/// (every node ≤ k inputs) by recursive Roth–Karp decomposition:
///
///  - *collapse mode* (small circuits, as in the paper's experimental setup):
///    primary-output global functions are decomposed directly;
///  - *per-node mode* (large circuits): each wide node is decomposed over its
///    fanins; wide nodes sharing identical supports can be grouped into
///    hyper-functions (the paper's partially-collapsed **des** treatment).
///
/// Knobs map to the systems of Tables 1 and 2 (see DESIGN.md §3):
///  - HYDE: hyper-functions + compatible-class encoding + clique-partition DC
///    assignment, PPIs biased to the free set (Section 4.3);
///  - FGSyn-like [4]: hyper-functions with PPIs *always* free (column
///    encoding as the degenerate case), random encoding;
///  - IMODEC-like [5]: per-output decomposition, rigid random encoding,
///    DC merging on (sharing comes from downstream functional dedup);
///  - Sawada-like [8] (no resub): per-output decomposition, random encoding,
///    distinct-column classes (no clique partitioning).
///
/// One flow runs serially on its caller's thread over one private BDD
/// manager. Concurrency comes from running whole flows side by side
/// (`runtime::run_batch` jobs, `part::run_windowed_flow` windows), never
/// from inside a flow.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/decomp_cache.hpp"
#include "core/encoder.hpp"
#include "decomp/compatible.hpp"
#include "decomp/varpart.hpp"
#include "core/hyper.hpp"
#include "net/network.hpp"

namespace hyde::core {

/// How compatible classes (and hyper-function ingredients) are encoded.
enum class EncodingPolicy {
  kRandom,           ///< Step-1 random encoding only
  kCompatibleClass,  ///< the paper's Figure-3 procedure
  kCubeCount,        ///< Murgai et al. [3]: minimize the image's cube count
};

/// How a multi-output group is realized.
enum class GroupChoice {
  kAuto,         ///< decompose both ways, keep the cheaper (Section 4.3)
  kAlwaysHyper,  ///< always take the hyper-function result
  kNeverHyper,   ///< always take the per-output result
};

struct FlowOptions {
  int k = 5;  ///< LUT input count
  EncodingPolicy encoding = EncodingPolicy::kCompatibleClass;
  decomp::DcPolicy dc_policy = decomp::DcPolicy::kCliquePartition;
  bool use_hyper = true;   ///< group outputs into hyper-functions
  GroupChoice group_choice = GroupChoice::kAuto;
  bool ppi_hard_mu = false;  ///< FGSyn-like: PPIs never enter a bound set
  int max_group_size = 4;  ///< ingredients per hyper-function
  /// PI-count threshold for collapse mode; wider circuits run per-node.
  int max_collapse_support = 16;
  std::uint64_t seed = 1;
  /// Number of flow applications (the paper re-applies its multi-level
  /// script "several times"); each pass feeds the previous pass's network.
  int passes = 1;
  /// Optional NPN decomposition memo shared across flows/threads (see
  /// decomp_cache.hpp for the determinism and thread-safety contracts).
  /// Null keeps the historical uncached behaviour.
  DecompCache* cache = nullptr;
  /// Functions with support in (k, cache_max_support] go through the cache;
  /// capped at tt::kMaxExactNpnVars by the canonicalizer.
  int cache_max_support = 7;

  /// Hard cap on live nodes in the flow's global BDD manager (0 = no limit).
  /// Exceeding it makes the flow throw std::length_error; the windowed
  /// engine (part/windowed.hpp) catches it and splits or passes the window
  /// through. Result-neutral whenever the flow completes, so excluded from
  /// the NPN-cache fingerprint.
  std::size_t bdd_node_limit = 0;
};

/// Flow outcome counters (area is the post-sweep logic node count; the
/// mapper refines it with functional dedup / CLB packing).
struct FlowStats {
  int decomposition_steps = 0;
  int shannon_fallbacks = 0;
  int hyper_groups = 0;
  int encoder_runs = 0;
  int encoder_random_kept = 0;  ///< Step-8 chose the random encoding
  bool collapse_mode = false;
  /// NPN-cache consultations by this flow (schedule-independent; global
  /// hit/miss totals live on the cache itself, which is shared state).
  int cache_lookups = 0;

  // Persistent-store counters (src/store/persistent_cache.hpp), populated
  // only when FlowOptions::cache has a persistent tier. Volatile: whether a
  // key is served from memory or disk depends on which thread warmed the
  // memory tier first, so these are only emitted in volatile report
  // sections. Store-level byte/eviction counters live on the store itself.
  std::uint64_t store_disk_hits = 0;    ///< lookups served by the disk tier
  std::uint64_t store_disk_misses = 0;  ///< lookups that missed every tier

  // BDD-kernel counters summed over every manager the flow created (the
  // global manager plus one per NPN-cache template miss). Volatile in the
  // sense of run reports: they vary with cache hit patterns and thread
  // schedule, so they are only emitted in volatile report sections.
  std::uint64_t bdd_cache_hits = 0;
  std::uint64_t bdd_cache_misses = 0;
  std::uint64_t bdd_cache_overwrites = 0;
  std::uint64_t bdd_gc_runs = 0;
  std::uint64_t bdd_peak_live_nodes = 0;  ///< max over managers, not a sum

  // Bound-set search counters (decomp/varpart.hpp). Volatile like the bdd_*
  // block: NPN-template misses, and so the searches they run, depend on
  // cache timing, so these only appear in volatile report sections.
  std::uint64_t search_selects = 0;
  std::uint64_t search_candidates_evaluated = 0;
  /// Always 0: the search no longer prunes candidates. Kept only because the
  /// end-to-end benchmark (perfbench/) reads it for its prune-ratio metric.
  std::uint64_t search_candidates_pruned = 0;
  /// Always 0: the search no longer memoizes chart counts. Kept only because
  /// the end-to-end benchmark (perfbench/) reads it for its memo-hit metric.
  std::uint64_t search_memo_hits = 0;

  // Class-computation counters (decomp/compatible.hpp). Volatile like the
  // search block: they record which compatibility path decided each column
  // pair, never anything the results depend on.
  std::uint64_t class_signature_pairs = 0;
  std::uint64_t class_bdd_pairs = 0;

  // Windowed-decomposition counters (part/windowed.hpp). Deterministic for
  // fixed (input, options) — extraction, budget fallbacks and splits never
  // depend on the window thread count — but only the windowed engine
  // populates them, so they are reported in the volatile sections next to
  // the other engine blocks.
  int windows_extracted = 0;
  int windows_resynthesized = 0;
  int windows_passthrough = 0;
  int windows_budget_fallbacks = 0;  ///< window flows that blew the BDD budget
  int windows_split = 0;             ///< windows halved after a budget blowout
  int windows_verify_failures = 0;   ///< per-window checks that forced pass-through
  int window_peak_inputs = 0;        ///< widest extracted window (boundary signals)
  int window_peak_nodes = 0;         ///< largest extracted window (members)
  double window_extract_seconds = 0.0;  ///< volatile wall clock
  double window_stitch_seconds = 0.0;   ///< volatile wall clock

  // Windowed scheduling telemetry (volatile: thread count and wall clock
  // vary run to run — keep these out of any determinism checksum).
  /// Always 0: the window pool has one shared queue and nothing to steal.
  /// Kept only because the end-to-end benchmark (perfbench/) reads it for
  /// its steals metric.
  std::uint64_t window_steals = 0;
  int window_workers = 0;  ///< pool workers (0 = no window needed resynthesis)
  double window_worker_busy_seconds = 0.0;       ///< summed worker busy time
  double window_worker_busy_peak_seconds = 0.0;  ///< busiest single worker
  double window_max_seconds = 0.0;  ///< slowest single window, wall clock
  int window_max_index = -1;        ///< extraction index of that window

  // Per-phase wall-clock breakdown (volatile; seconds). varpart is the
  // bound-set search's self-timed total, classes covers compatible-class
  // computation (the class counts that test each trial bound set included),
  // encoding is encoder wall time net of the nested bound-set searches it
  // triggers, mapping is filled in by the baseline mapper after the flow
  // proper (cleanup through CLB packing).
  double varpart_seconds = 0.0;
  double classes_seconds = 0.0;
  double encoding_seconds = 0.0;
  double mapping_seconds = 0.0;

  /// Folds one manager's counters into the flow totals.
  void absorb_bdd_stats(const bdd::ManagerStats& s) {
    bdd_cache_hits += s.cache_hits;
    bdd_cache_misses += s.cache_misses;
    bdd_cache_overwrites += s.cache_overwrites;
    bdd_gc_runs += static_cast<std::uint64_t>(s.gc_runs);
    if (s.peak_live_nodes > bdd_peak_live_nodes) {
      bdd_peak_live_nodes = s.peak_live_nodes;
    }
  }

  /// Adds a cached template's decision counters, identically on NPN-cache
  /// hits and misses.
  void absorb_template_stats(const TemplateStats& t) {
    decomposition_steps += t.decomposition_steps;
    shannon_fallbacks += t.shannon_fallbacks;
    encoder_runs += t.encoder_runs;
    encoder_random_kept += t.encoder_random_kept;
  }

  /// Folds one flow's search counters into the flow totals; the search's
  /// self-timed wall clock is the varpart phase.
  void absorb_search_stats(const decomp::SearchStats& s) {
    search_selects += s.selects;
    search_candidates_evaluated += s.candidates_evaluated;
    varpart_seconds += s.seconds;
  }

  /// Folds one class computation's pair counters into the flow totals.
  void absorb_class_stats(const decomp::ClassStats& s) {
    class_signature_pairs += s.signature_pairs;
    class_bdd_pairs += s.bdd_pairs;
  }

  /// Folds another flow's volatile search, class and store counters and its
  /// phase timings into this one (NPN-template sub-flows, whose decision
  /// counters live in the shared template instead).
  void absorb_search_and_phases(const FlowStats& s) {
    search_selects += s.search_selects;
    search_candidates_evaluated += s.search_candidates_evaluated;
    class_signature_pairs += s.class_signature_pairs;
    class_bdd_pairs += s.class_bdd_pairs;
    store_disk_hits += s.store_disk_hits;
    store_disk_misses += s.store_disk_misses;
    varpart_seconds += s.varpart_seconds;
    classes_seconds += s.classes_seconds;
    encoding_seconds += s.encoding_seconds;
    mapping_seconds += s.mapping_seconds;
  }

  /// Folds another flow's stats into this one: the passes of a multi-pass
  /// flow, the windows of a windowed flow, the jobs of a batch. Counts and
  /// seconds add; peaks take the max; the slowest window keeps its index
  /// (a tie keeps this one's); collapse_mode stays this flow's own.
  void merge(const FlowStats& s) {
    decomposition_steps += s.decomposition_steps;
    shannon_fallbacks += s.shannon_fallbacks;
    hyper_groups += s.hyper_groups;
    encoder_runs += s.encoder_runs;
    encoder_random_kept += s.encoder_random_kept;
    cache_lookups += s.cache_lookups;
    bdd_cache_hits += s.bdd_cache_hits;
    bdd_cache_misses += s.bdd_cache_misses;
    bdd_cache_overwrites += s.bdd_cache_overwrites;
    bdd_gc_runs += s.bdd_gc_runs;
    bdd_peak_live_nodes = std::max(bdd_peak_live_nodes, s.bdd_peak_live_nodes);
    search_candidates_pruned += s.search_candidates_pruned;
    search_memo_hits += s.search_memo_hits;
    windows_extracted += s.windows_extracted;
    windows_resynthesized += s.windows_resynthesized;
    windows_passthrough += s.windows_passthrough;
    windows_budget_fallbacks += s.windows_budget_fallbacks;
    windows_split += s.windows_split;
    windows_verify_failures += s.windows_verify_failures;
    window_peak_inputs = std::max(window_peak_inputs, s.window_peak_inputs);
    window_peak_nodes = std::max(window_peak_nodes, s.window_peak_nodes);
    window_extract_seconds += s.window_extract_seconds;
    window_stitch_seconds += s.window_stitch_seconds;
    window_steals += s.window_steals;
    window_workers = std::max(window_workers, s.window_workers);
    window_worker_busy_seconds += s.window_worker_busy_seconds;
    window_worker_busy_peak_seconds = std::max(
        window_worker_busy_peak_seconds, s.window_worker_busy_peak_seconds);
    if (s.window_max_seconds > window_max_seconds) {
      window_max_seconds = s.window_max_seconds;
      window_max_index = s.window_max_index;
    }
    absorb_search_and_phases(s);
  }
};

struct FlowResult {
  net::Network network;
  FlowStats stats;
};

/// Runs the configured flow over \p input and returns a k-feasible network
/// computing the same primary outputs.
///
/// \p external_dc optionally supplies per-output external don't cares (e.g.
/// from a PLA's `-` outputs or a BLIF `.exdc` section): a network with the
/// same primary-input names whose output named like one of \p input's POs
/// gives that PO's don't-care function. Honoured in collapse mode (the mode
/// used for the circuits small enough to exploit DCs globally); per-node
/// mode ignores it.
FlowResult run_flow(const net::Network& input, const FlowOptions& options,
                    const net::Network* external_dc = nullptr);

/// Convenience preset builders for the published points of comparison.
FlowOptions hyde_options(int k);
FlowOptions fgsyn_like_options(int k);
FlowOptions imodec_like_options(int k);
FlowOptions sawada_like_options(int k);

}  // namespace hyde::core
