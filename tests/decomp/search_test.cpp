/// \file search_test.cpp
/// \brief Bound-set search engine correctness: bit-identical selection
/// against a verbatim copy of the historical greedy loop — counting columns
/// with the cut method or with the recursive oracle — whatever the chart
/// memo holds.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/encoder.hpp"
#include "decomp/search.hpp"
#include "decomp/step.hpp"
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

/// Verbatim re-implementation of the historical select_bound_set greedy loop
/// (pre-engine): evaluates every candidate from scratch with an exact count,
/// by the cut method or, with \p recursive, by the recursive-cofactor oracle.
/// The engine must reproduce this bit for bit.
VarPartitionResult legacy_select(Manager& mgr, const IsfBdd& f,
                                 const std::vector<int>& support,
                                 const VarPartitionOptions& options,
                                 bool recursive = false) {
  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    return result;
  }
  std::vector<int> preferred, avoided;
  for (int v : support) {
    if (std::find(options.avoid.begin(), options.avoid.end(), v) !=
        options.avoid.end()) {
      avoided.push_back(v);
    } else {
      preferred.push_back(v);
    }
  }
  std::vector<int> bound;
  while (static_cast<int>(bound.size()) < options.bound_size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    int best_var = -1;
    int best_cost = 0;
    for (int v : pool) {
      DecompSpec spec;
      spec.mgr = &mgr;
      spec.f = f;
      spec.bound = bound;
      spec.bound.push_back(v);
      for (int s : support) {
        if (std::find(spec.bound.begin(), spec.bound.end(), s) ==
            spec.bound.end()) {
          spec.free.push_back(s);
        }
      }
      const int cost = recursive ? count_columns_recursive(spec)
                                 : count_columns_via_cut(spec);
      if (best_var < 0 || cost < best_cost ||
          (cost == best_cost && v < best_var)) {
        best_var = v;
        best_cost = cost;
      }
    }
    bound.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }
  std::sort(bound.begin(), bound.end());
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = f;
  spec.bound = bound;
  for (int v : support) {
    if (std::find(bound.begin(), bound.end(), v) == bound.end()) {
      spec.free.push_back(v);
    }
  }
  result.bound = spec.bound;
  result.free = spec.free;
  result.num_classes = count_compatible_classes(spec, options.dc_policy);
  result.success = true;
  if (options.require_nontrivial &&
      result.code_bits() >= static_cast<int>(result.bound.size())) {
    result.success = false;
  }
  return result;
}

void expect_same_result(const VarPartitionResult& a,
                        const VarPartitionResult& b, const char* what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.free, b.free) << what;
  EXPECT_EQ(a.num_classes, b.num_classes) << what;
}

TEST(BoundSetSearchTest, AllConfigurationsMatchTheLegacyGreedy) {
  std::mt19937_64 rng(63);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);  // 6..8 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~on;
    const IsfBdd f{on, dc};
    const std::vector<int> support = mgr.support(on | dc);
    if (static_cast<int>(support.size()) < 4) continue;

    VarPartitionOptions options;
    options.bound_size = 3 + static_cast<int>(rng() % 2);
    options.require_nontrivial = (rng() & 1) != 0;
    if ((rng() & 1) != 0) options.avoid = {support[0], support[1]};

    const VarPartitionResult reference =
        legacy_select(mgr, f, support, options);

    // A fresh engine (empty memo) and a repeat select served from the memo
    // must both agree with the legacy loop.
    BoundSetSearch engine(mgr);
    expect_same_result(engine.select(f, support, options), reference,
                       "single select");
    expect_same_result(engine.select(f, support, options), reference,
                       "repeat select");
    EXPECT_GT(engine.stats().memo_hits, 0u);
  }
}

TEST(BoundSetSearchTest, RecursiveReferencePathMatchesLegacy) {
  std::mt19937_64 rng(64);
  Manager mgr(6);
  const Bdd on = random_bdd(mgr, 6, rng);
  const IsfBdd f{on, mgr.zero()};
  const std::vector<int> support = mgr.support(on);
  VarPartitionOptions options;
  options.bound_size = 3;
  // The legacy loop counts every candidate with the 2^|bound| oracle.
  BoundSetSearch engine(mgr);
  expect_same_result(engine.select(f, support, options),
                     legacy_select(mgr, f, support, options, /*recursive=*/true),
                     "recursive ref");
}

TEST(BoundSetSearchTest, ShrinkingBoundSizeReplaysThePrefixFromTheMemo) {
  // The flow re-searches from size k down to 2 when a partition is trivial;
  // the greedy prefix of a smaller size is a subsequence of the larger one,
  // so the second select must be served largely from the memo.
  std::mt19937_64 rng(65);
  Manager mgr(8);
  const Bdd on = random_bdd(mgr, 8, rng);
  const IsfBdd f{on, mgr.zero()};
  const std::vector<int> support = mgr.support(on);
  ASSERT_GE(support.size(), 5u);

  BoundSetSearch engine(mgr);
  VarPartitionOptions options;
  options.bound_size = 4;
  options.require_nontrivial = false;
  const auto at4 = engine.select(f, support, options);
  const std::uint64_t hits_before = engine.stats().memo_hits;
  options.bound_size = 3;
  const auto at3 = engine.select(f, support, options);
  EXPECT_GT(engine.stats().memo_hits, hits_before);
  // The greedy prefix is shared: the size-3 bound set is a subset of size-4.
  for (int v : at3.bound) {
    EXPECT_NE(std::find(at4.bound.begin(), at4.bound.end(), v),
              at4.bound.end());
  }
}

TEST(BoundSetSearchTest, MemoClearsWhenOverCapacityAndStaysCorrect) {
  // Fresh random functions keep adding memo entries until a greedy step
  // would take the memo past kMemoCapacity, which forces a wholesale clear.
  std::mt19937_64 rng(66);
  Manager mgr(7);
  BoundSetSearch engine(mgr);
  VarPartitionOptions options;
  options.bound_size = 3;
  int checked_after_clear = 0;
  for (int trial = 0; trial < 4000 && checked_after_clear < 3; ++trial) {
    const Bdd on = random_bdd(mgr, 7, rng);
    const IsfBdd f{on, mgr.zero()};
    const std::vector<int> support = mgr.support(on);
    if (static_cast<int>(support.size()) < 4) continue;
    const bool cleared = engine.stats().memo_clears > 0;
    const VarPartitionResult got = engine.select(f, support, options);
    EXPECT_LE(engine.memo_size(), BoundSetSearch::kMemoCapacity);
    if (cleared || trial % 64 == 0) {
      expect_same_result(got, legacy_select(mgr, f, support, options),
                         "memo at capacity");
      if (cleared) ++checked_after_clear;
    }
  }
  EXPECT_GT(engine.stats().memo_clears, 0u);
  EXPECT_EQ(checked_after_clear, 3);
}

TEST(BoundSetSearchTest, OversizeBoundThrowsLikeLegacy) {
  Manager mgr(2);
  const IsfBdd f{mgr.var(0) & mgr.var(1), mgr.zero()};
  std::vector<int> support(kMaxBoundVars + 2);
  for (int v = 0; v < kMaxBoundVars + 2; ++v) support[v] = v;
  VarPartitionOptions options;
  options.bound_size = kMaxBoundVars + 1;
  BoundSetSearch engine(mgr);
  EXPECT_THROW(engine.select(f, support, options), std::invalid_argument);
}

TEST(BoundSetSearchTest, EncoderHookMatchesHookFreeEncoding) {
  // encode_classes with EncoderOptions::search must produce the identical
  // EncodingChoice (encoding, lambda hint, trace geometry) as without it.
  std::mt19937_64 rng(67);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 7;
    Manager mgr(n + 4);
    const Bdd on = random_bdd(mgr, n, rng);
    const IsfBdd f{on, mgr.zero()};
    const std::vector<int> support = mgr.support(on);
    if (static_cast<int>(support.size()) < 6) continue;

    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    for (std::size_t i = 0; i < support.size(); ++i) {
      (i < 4 ? spec.bound : spec.free).push_back(support[i]);
    }
    const auto classes =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition);
    if (classes.num_classes() < 3) continue;
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(n + j);

    core::EncoderOptions base;
    base.k = 4;
    base.seed = 11 + static_cast<std::uint64_t>(trial);
    const auto plain =
        core::encode_classes(mgr, classes, spec.free, alpha_vars, base);

    BoundSetSearch engine(mgr);
    core::EncoderOptions hooked = base;
    hooked.search = &engine;
    const auto via_engine =
        core::encode_classes(mgr, classes, spec.free, alpha_vars, hooked);

    EXPECT_EQ(plain.encoding.codes, via_engine.encoding.codes);
    EXPECT_EQ(plain.lambda_hint, via_engine.lambda_hint);
    EXPECT_EQ(plain.trace.used_random, via_engine.trace.used_random);
    EXPECT_EQ(plain.trace.num_rows, via_engine.trace.num_rows);
    EXPECT_EQ(plain.trace.num_cols, via_engine.trace.num_cols);
  }
}

TEST(BoundSetSearchTest, WrapperSelectBoundSetStillMatchesLegacy) {
  // The free function is a thin wrapper over a one-shot engine; pin its
  // behaviour to the reference too.
  std::mt19937_64 rng(68);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 6;
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const IsfBdd f{on, mgr.zero()};
    const std::vector<int> support = mgr.support(on);
    if (static_cast<int>(support.size()) < 4) continue;
    VarPartitionOptions options;
    options.bound_size = 3;
    expect_same_result(select_bound_set(mgr, f, support, options),
                       legacy_select(mgr, f, support, options), "wrapper");
  }
}

}  // namespace
}  // namespace hyde::decomp
