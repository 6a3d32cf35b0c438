/// The paper's "script applied several times" behaviour: FlowOptions::passes.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"

namespace hyde::core {
namespace {

TEST(MultiPass, SecondPassPreservesEquivalence) {
  for (const char* name : {"rd84", "misex1", "clip"}) {
    const auto input = mcnc::make_circuit(name);
    FlowOptions options = hyde_options(5);
    options.passes = 2;
    auto flow = run_flow(input, options);
    EXPECT_TRUE(flow.network.is_k_feasible(5)) << name;
    EXPECT_TRUE(net::check_equivalence(input, flow.network).equivalent) << name;
  }
}

TEST(MultiPass, NeverMuchWorseThanSinglePass) {
  for (const char* name : {"rd84", "sao2", "5xp1"}) {
    const auto input = mcnc::make_circuit(name);
    auto luts_for = [&input](int passes) {
      FlowOptions options = hyde_options(5);
      options.passes = passes;
      auto flow = run_flow(input, options);
      mapper::dedup_shared_nodes(flow.network);
      mapper::collapse_into_fanouts(flow.network, 5);
      return mapper::lut_count(flow.network);
    };
    const int one = luts_for(1);
    const int two = luts_for(2);
    // A second pass re-collapses and re-decomposes; it may shuffle a little
    // but must not explode.
    EXPECT_LE(two, one * 2) << name;
    EXPECT_GT(two, 0) << name;
  }
}

TEST(MultiPass, StatsAccumulateAcrossPasses) {
  const auto input = mcnc::make_circuit("rd73");
  FlowOptions one_pass = hyde_options(5);
  FlowOptions three_pass = hyde_options(5);
  three_pass.passes = 3;
  const auto a = run_flow(input, one_pass);
  const auto b = run_flow(input, three_pass);
  EXPECT_GE(b.stats.decomposition_steps, a.stats.decomposition_steps);
}

TEST(MultiPass, TwoPassStatsAreTheMergedOnePassRuns) {
  for (const char* name : {"rd73", "misex1"}) {
    const auto input = mcnc::make_circuit(name);
    const FlowOptions one_pass = hyde_options(5);
    FlowOptions two_pass = one_pass;
    two_pass.passes = 2;
    const auto first = run_flow(input, one_pass);
    const auto second = run_flow(first.network, one_pass);
    const auto both = run_flow(input, two_pass);

    FlowStats expected = second.stats;
    expected.merge(first.stats);
    EXPECT_EQ(both.stats.decomposition_steps,
              first.stats.decomposition_steps +
                  second.stats.decomposition_steps)
        << name;
    EXPECT_EQ(both.stats.decomposition_steps, expected.decomposition_steps)
        << name;
    EXPECT_EQ(both.stats.shannon_fallbacks, expected.shannon_fallbacks) << name;
    EXPECT_EQ(both.stats.hyper_groups, expected.hyper_groups) << name;
    EXPECT_EQ(both.stats.encoder_runs, expected.encoder_runs) << name;
    EXPECT_EQ(both.stats.encoder_random_kept, expected.encoder_random_kept)
        << name;
    EXPECT_EQ(both.stats.cache_lookups, expected.cache_lookups) << name;
    EXPECT_EQ(both.stats.collapse_mode, second.stats.collapse_mode) << name;
    EXPECT_EQ(both.stats.search_selects,
              first.stats.search_selects + second.stats.search_selects)
        << name;
  }
}

}  // namespace
}  // namespace hyde::core
