/// FlowStats::merge, the one rule for adding two flows' stats: counts and
/// seconds add, peaks take the max, the slowest window keeps its index, and
/// collapse_mode stays the receiver's.

#include <gtest/gtest.h>

#include "core/flow.hpp"

namespace hyde::core {
namespace {

/// Stats with every field set from \p base, so two fills never coincide.
FlowStats filled(int base, bool collapse) {
  FlowStats s;
  const auto u = [base](int offset) {
    return static_cast<std::uint64_t>(base + offset);
  };
  s.decomposition_steps = base + 1;
  s.shannon_fallbacks = base + 2;
  s.hyper_groups = base + 3;
  s.encoder_runs = base + 4;
  s.encoder_random_kept = base + 5;
  s.collapse_mode = collapse;
  s.cache_lookups = base + 6;
  s.store_disk_hits = u(7);
  s.store_disk_misses = u(8);
  s.bdd_cache_hits = u(9);
  s.bdd_cache_misses = u(10);
  s.bdd_cache_overwrites = u(11);
  s.bdd_gc_runs = u(12);
  s.bdd_peak_live_nodes = u(14);
  s.search_selects = u(15);
  s.search_candidates_evaluated = u(16);
  s.search_candidates_pruned = u(17);
  s.search_memo_hits = u(18);
  s.class_signature_pairs = u(20);
  s.class_bdd_pairs = u(21);
  s.windows_extracted = base + 22;
  s.windows_resynthesized = base + 23;
  s.windows_passthrough = base + 24;
  s.windows_budget_fallbacks = base + 25;
  s.windows_split = base + 26;
  s.windows_verify_failures = base + 27;
  s.window_peak_inputs = base + 28;
  s.window_peak_nodes = base + 29;
  s.window_extract_seconds = base + 0.25;
  s.window_stitch_seconds = base + 0.5;
  s.window_steals = u(31);
  s.window_workers = base + 32;
  s.window_worker_busy_seconds = base + 1.25;
  s.window_worker_busy_peak_seconds = base + 1.5;
  s.window_max_seconds = base + 2.25;
  s.window_max_index = base + 33;
  s.varpart_seconds = base + 3.25;
  s.classes_seconds = base + 3.5;
  s.encoding_seconds = base + 3.75;
  s.mapping_seconds = base + 4.25;
  return s;
}

TEST(FlowStatsMerge, SumsCountsAndSecondsAndTakesTheMaxOfPeaks) {
  // The receiver holds the larger peaks, the argument the larger window.
  FlowStats into = filled(100, /*collapse=*/false);
  into.window_max_seconds = 1.0;
  const FlowStats other = filled(10, /*collapse=*/true);
  into.merge(other);

  EXPECT_EQ(into.decomposition_steps, 101 + 11);
  EXPECT_EQ(into.shannon_fallbacks, 102 + 12);
  EXPECT_EQ(into.hyper_groups, 103 + 13);
  EXPECT_EQ(into.encoder_runs, 104 + 14);
  EXPECT_EQ(into.encoder_random_kept, 105 + 15);
  EXPECT_FALSE(into.collapse_mode);
  EXPECT_EQ(into.cache_lookups, 106 + 16);
  EXPECT_EQ(into.store_disk_hits, 107u + 17u);
  EXPECT_EQ(into.store_disk_misses, 108u + 18u);
  EXPECT_EQ(into.bdd_cache_hits, 109u + 19u);
  EXPECT_EQ(into.bdd_cache_misses, 110u + 20u);
  EXPECT_EQ(into.bdd_cache_overwrites, 111u + 21u);
  EXPECT_EQ(into.bdd_gc_runs, 112u + 22u);
  EXPECT_EQ(into.bdd_peak_live_nodes, 114u);
  EXPECT_EQ(into.search_selects, 115u + 25u);
  EXPECT_EQ(into.search_candidates_evaluated, 116u + 26u);
  EXPECT_EQ(into.search_candidates_pruned, 117u + 27u);
  EXPECT_EQ(into.search_memo_hits, 118u + 28u);
  EXPECT_EQ(into.class_signature_pairs, 120u + 30u);
  EXPECT_EQ(into.class_bdd_pairs, 121u + 31u);
  EXPECT_EQ(into.windows_extracted, 122 + 32);
  EXPECT_EQ(into.windows_resynthesized, 123 + 33);
  EXPECT_EQ(into.windows_passthrough, 124 + 34);
  EXPECT_EQ(into.windows_budget_fallbacks, 125 + 35);
  EXPECT_EQ(into.windows_split, 126 + 36);
  EXPECT_EQ(into.windows_verify_failures, 127 + 37);
  EXPECT_EQ(into.window_peak_inputs, 128);
  EXPECT_EQ(into.window_peak_nodes, 129);
  EXPECT_DOUBLE_EQ(into.window_extract_seconds, 100.25 + 10.25);
  EXPECT_DOUBLE_EQ(into.window_stitch_seconds, 100.5 + 10.5);
  EXPECT_EQ(into.window_steals, 131u + 41u);
  EXPECT_EQ(into.window_workers, 132);
  EXPECT_DOUBLE_EQ(into.window_worker_busy_seconds, 101.25 + 11.25);
  EXPECT_DOUBLE_EQ(into.window_worker_busy_peak_seconds, 101.5);
  EXPECT_DOUBLE_EQ(into.window_max_seconds, 12.25);
  EXPECT_EQ(into.window_max_index, 43);
  EXPECT_DOUBLE_EQ(into.varpart_seconds, 103.25 + 13.25);
  EXPECT_DOUBLE_EQ(into.classes_seconds, 103.5 + 13.5);
  EXPECT_DOUBLE_EQ(into.encoding_seconds, 103.75 + 13.75);
  EXPECT_DOUBLE_EQ(into.mapping_seconds, 104.25 + 14.25);
}

TEST(FlowStatsMerge, PeaksComeFromTheArgumentWhenItsAreLarger) {
  FlowStats into = filled(10, /*collapse=*/true);
  into.merge(filled(100, /*collapse=*/false));
  EXPECT_TRUE(into.collapse_mode);
  EXPECT_EQ(into.bdd_peak_live_nodes, 114u);
  EXPECT_EQ(into.window_peak_inputs, 128);
  EXPECT_EQ(into.window_peak_nodes, 129);
  EXPECT_EQ(into.window_workers, 132);
  EXPECT_DOUBLE_EQ(into.window_worker_busy_peak_seconds, 101.5);
  EXPECT_DOUBLE_EQ(into.window_max_seconds, 102.25);
  EXPECT_EQ(into.window_max_index, 133);
}

TEST(FlowStatsMerge, SlowestWindowTieKeepsTheReceiversIndex) {
  FlowStats into;
  into.window_max_seconds = 2.0;
  into.window_max_index = 3;
  FlowStats other;
  other.window_max_seconds = 2.0;
  other.window_max_index = 7;
  into.merge(other);
  EXPECT_DOUBLE_EQ(into.window_max_seconds, 2.0);
  EXPECT_EQ(into.window_max_index, 3);

  // A default (no window timed) argument leaves the receiver untouched too.
  into.merge(FlowStats{});
  EXPECT_EQ(into.window_max_index, 3);
}

}  // namespace
}  // namespace hyde::core
