/// \file search_reorder_test.cpp
/// \brief Reorder-epoch interaction with the retained decomposition state:
/// the BoundSetSearch memo must be impossible to stale-hit across a reorder
/// of the manager, and the column counts the chart layer computes must be
/// invariant under the variable order.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "decomp/chart.hpp"
#include "decomp/search.hpp"
#include "oracle/chart_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

Bdd random_bdd(Manager& mgr, int num_vars, std::mt19937_64& rng) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
  return mgr.from_truth_table(table);
}

void expect_same_result(const VarPartitionResult& a,
                        const VarPartitionResult& b, const char* what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.free, b.free) << what;
  EXPECT_EQ(a.num_classes, b.num_classes) << what;
}

TEST(BoundSetSearchReorderTest, MemoReplayAcrossAForcedReorderEpoch) {
  // The memo keys on raw node ids, which a reorder invalidates. A select
  // after reorder_sift must
  // (a) detect the new epoch and clear, and (b) still return the identical
  // partition — the greedy decision is a function of order-invariant column
  // counts, never of the incidental node ids.
  std::mt19937_64 rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(8);
    const Bdd on = random_bdd(mgr, 8, rng);
    const Bdd dc = random_bdd(mgr, 8, rng) & ~on;
    const IsfBdd f{on, dc};
    const std::vector<int> support = mgr.support(on | dc);
    if (static_cast<int>(support.size()) < 5) continue;
    VarPartitionOptions options;
    options.bound_size = 3;

    BoundSetSearch engine(mgr);
    const VarPartitionResult before = engine.select(f, support, options);
    EXPECT_GT(engine.memo_size(), 0u);
    const std::uint64_t clears_before = engine.stats().memo_clears;

    const std::uint64_t old_epoch = mgr.reorder_epoch();
    mgr.reorder_sift();
    ASSERT_GT(mgr.reorder_epoch(), old_epoch);

    // The entries built in the old epoch must be dropped, not replayed.
    const VarPartitionResult after = engine.select(f, support, options);
    expect_same_result(before, after, "select across epoch");
    EXPECT_GT(engine.stats().memo_clears, clears_before);

    // Within the new epoch the memo is live again: a repeat select hits.
    const std::uint64_t hits_before = engine.stats().memo_hits;
    expect_same_result(engine.select(f, support, options), before,
                       "repeat in new epoch");
    EXPECT_GT(engine.stats().memo_hits, hits_before);
  }
}

TEST(ChartReorderTest, ColumnCountsAreOrderInvariant) {
  // Both chart paths (cut enumeration and the recursive reference) must
  // count the same number of distinct columns whatever order the manager
  // currently holds — this is the property that makes the flow's results
  // independent of when auto-reorder happens to fire.
  std::mt19937_64 rng(73);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~on;
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{on, dc};
    const int bound_size = 2 + static_cast<int>(rng() % 3);
    for (int v = 0; v < n; ++v) {
      (v < bound_size ? spec.bound : spec.free).push_back(v);
    }
    const int cut_before = count_columns_via_cut(spec);
    const int rec_before = count_columns_recursive(spec);
    EXPECT_EQ(cut_before, rec_before);

    mgr.reorder_sift();

    EXPECT_EQ(count_columns_via_cut(spec), cut_before) << "trial " << trial;
    EXPECT_EQ(count_columns_recursive(spec), rec_before) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hyde::decomp
