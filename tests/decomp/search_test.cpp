/// \file search_test.cpp
/// \brief Bound-set search correctness: select_bound_set and grow_bound_set
/// against a verbatim copy of the historical greedy loop — counting columns
/// with the cut method or with the recursive oracle — and the prefix closure
/// the flow's k → 2 retry relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/encoder.hpp"
#include "decomp/step.hpp"
#include "decomp/varpart.hpp"
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

/// Verbatim re-implementation of the historical select_bound_set greedy loop:
/// evaluates every candidate from scratch with an exact count, by the cut
/// method or, with \p recursive, by the recursive-cofactor oracle. The
/// search must reproduce this bit for bit.
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
                                 : count_columns(spec);
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

/// A random ISF over 6..8 variables with a support of at least 4.
struct RandomIsf {
  IsfBdd f;
  std::vector<int> support;
};

RandomIsf random_isf(Manager& mgr, int n, std::mt19937_64& rng) {
  const Bdd on = random_bdd(mgr, n, rng);
  const Bdd dc = random_bdd(mgr, n, rng) & ~on;
  return {IsfBdd{on, dc}, mgr.support(on | dc)};
}

TEST(BoundSetSearchTest, AllConfigurationsMatchTheLegacyGreedy) {
  std::mt19937_64 rng(63);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);  // 6..8 variables
    Manager mgr(n);
    const RandomIsf isf = random_isf(mgr, n, rng);
    if (static_cast<int>(isf.support.size()) < 4) continue;

    VarPartitionOptions options;
    options.bound_size = 3 + static_cast<int>(rng() % 2);
    options.require_nontrivial = (rng() & 1) != 0;
    if ((rng() & 1) != 0) options.avoid = {isf.support[0], isf.support[1]};

    const VarPartitionResult reference =
        legacy_select(mgr, isf.f, isf.support, options);

    // Calls keep no state: a repeat with the same sink agrees too, and the
    // sink counts both growths.
    SearchStats stats;
    expect_same_result(select_bound_set(mgr, isf.f, isf.support, options, &stats),
                       reference, "single select");
    expect_same_result(select_bound_set(mgr, isf.f, isf.support, options, &stats),
                       reference, "repeat select");
    EXPECT_EQ(stats.selects, 2u);
    EXPECT_GT(stats.candidates_evaluated, 0u);
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
  expect_same_result(select_bound_set(mgr, f, support, options),
                     legacy_select(mgr, f, support, options, /*recursive=*/true),
                     "recursive ref");
}

TEST(BoundSetSearchTest, GrowthIsPrefixClosed) {
  // The flow grows once to size k and tries the sorted prefixes from k down
  // to 2; each must be exactly the bound set a search at that size selects.
  std::mt19937_64 rng(65);
  int checked = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);  // 6..8 variables
    Manager mgr(n);
    const RandomIsf isf = random_isf(mgr, n, rng);
    if (static_cast<int>(isf.support.size()) < 5) continue;
    const int k = std::min(5, static_cast<int>(isf.support.size()) - 1);

    std::vector<int> avoid;
    if (trial % 2 == 1) avoid = {isf.support[1], isf.support[3]};
    const std::vector<int> picks =
        grow_bound_set(mgr, isf.f, isf.support, k, avoid);
    ASSERT_EQ(static_cast<int>(picks.size()), k);
    for (int s = 1; s <= k; ++s) {
      VarPartitionOptions options;
      options.bound_size = s;
      options.avoid = avoid;
      options.require_nontrivial = false;
      std::vector<int> prefix(picks.begin(), picks.begin() + s);
      std::sort(prefix.begin(), prefix.end());
      EXPECT_EQ(prefix, legacy_select(mgr, isf.f, isf.support, options).bound)
          << "trial " << trial << " size " << s;
      ++checked;
    }
  }
  EXPECT_GE(checked, 20);
}

TEST(BoundSetSearchTest, OversizeBoundThrowsLikeLegacy) {
  Manager mgr(2);
  const IsfBdd f{mgr.var(0) & mgr.var(1), mgr.zero()};
  std::vector<int> support(kMaxBoundVars + 2);
  for (int v = 0; v < kMaxBoundVars + 2; ++v) support[v] = v;
  VarPartitionOptions options;
  options.bound_size = kMaxBoundVars + 1;
  EXPECT_THROW(select_bound_set(mgr, f, support, options),
               std::invalid_argument);
  EXPECT_THROW(grow_bound_set(mgr, f, support, kMaxBoundVars + 1, {}),
               std::invalid_argument);
}

TEST(BoundSetSearchTest, EncoderHookMatchesHookFreeEncoding) {
  // encode_classes with an EncoderOptions::search sink must produce the
  // identical EncodingChoice (encoding, lambda hint, trace geometry) as
  // without it.
  std::mt19937_64 rng(67);
  int searched = 0;
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

    SearchStats stats;
    core::EncoderOptions hooked = base;
    hooked.search = &stats;
    const auto with_sink =
        core::encode_classes(mgr, classes, spec.free, alpha_vars, hooked);

    EXPECT_EQ(plain.encoding.codes, with_sink.encoding.codes);
    EXPECT_EQ(plain.lambda_hint, with_sink.lambda_hint);
    EXPECT_EQ(plain.trace.used_random, with_sink.trace.used_random);
    EXPECT_EQ(plain.trace.num_rows, with_sink.trace.num_rows);
    EXPECT_EQ(plain.trace.num_cols, with_sink.trace.num_cols);
    // Step 3 searched exactly when the trace records a λ'.
    EXPECT_EQ(stats.selects, plain.trace.lambda_prime.empty() ? 0u : 1u);
    if (stats.selects != 0) ++searched;
  }
  EXPECT_GT(searched, 0);
}

TEST(BoundSetSearchTest, WrapperSelectBoundSetStillMatchesLegacy) {
  // Without a counter sink the search behaves the same.
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
