/// Windowed decomposition engine: end-to-end equivalence on every registry
/// circuit across window budgets, bit-identical results at every thread
/// count, and graceful budget fallbacks.

#include "part/windowed.hpp"

#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "gtest/gtest.h"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/verify.hpp"
#include "tt/truth_table.hpp"

namespace hyde::part {
namespace {

WindowedFlowOptions engine_options(int max_inputs, int max_nodes,
                                   int threads) {
  WindowedFlowOptions options;
  options.flow = baseline::system_flow_options(baseline::System::kHyde, 5);
  options.window.max_inputs = max_inputs;
  options.window.max_nodes = max_nodes;
  options.threads = threads;
  return options;
}

TEST(WindowedFlowTest, EquivalentAndThreadIdenticalOnRegistry) {
  struct Budget {
    int max_inputs;
    int max_nodes;
  };
  const std::vector<Budget> budgets = {{8, 32}, {12, 64}};
  for (const std::string& name : mcnc::all_circuits()) {
    const net::Network input = mcnc::make_circuit(name);
    for (const Budget& budget : budgets) {
      WindowedFlowResult reference;
      std::string reference_blif;
      for (int threads : {1, 2, 4}) {
        WindowedFlowResult result = run_windowed_flow(
            input, engine_options(budget.max_inputs, budget.max_nodes,
                                  threads));
        const std::string blif = net::write_blif_string(result.network);
        if (threads == 1) {
          // One full equivalence check per (circuit, budget); the other
          // thread counts must reproduce this result bit for bit.
          EXPECT_TRUE(
              net::check_equivalence(input, result.network).equivalent)
              << name << " inputs=" << budget.max_inputs;
          EXPECT_EQ(result.stats.windows_budget_fallbacks, 0) << name;
          EXPECT_TRUE(result.network.is_k_feasible(5)) << name;
          reference = std::move(result);
          reference_blif = blif;
          continue;
        }
        EXPECT_EQ(blif, reference_blif)
            << name << " diverges at threads=" << threads
            << " inputs=" << budget.max_inputs;
        EXPECT_EQ(result.stats.windows_extracted,
                  reference.stats.windows_extracted);
        EXPECT_EQ(result.stats.windows_resynthesized,
                  reference.stats.windows_resynthesized);
        EXPECT_EQ(result.stats.windows_passthrough,
                  reference.stats.windows_passthrough);
      }
    }
  }
}

TEST(WindowedFlowTest, BudgetBlowoutSplitsThenPassesThrough) {
  // Wide-arity DAG plus a BDD budget far too small for any window: every
  // resynthesis attempt must fall back, and the engine must still deliver an
  // equivalent network (pass-through keeps the original wide nodes).
  const net::Network input = mcnc::random_multilevel(
      "blowout", /*num_inputs=*/24, /*num_outputs=*/6, /*num_nodes=*/120,
      /*min_arity=*/4, /*max_arity=*/9, /*seed=*/11);
  WindowedFlowOptions options = engine_options(10, 24, 2);
  options.window_bdd_budget = 16;  // below any real window's working set
  options.max_split_depth = 2;
  WindowedFlowResult result = run_windowed_flow(input, options);
  EXPECT_GT(result.stats.windows_budget_fallbacks, 0);
  EXPECT_GT(result.stats.windows_passthrough, 0);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
}

TEST(WindowedFlowTest, SplitWindowsStillResynthesize) {
  // A budget small enough to force splits but large enough for the halves:
  // splits happen, yet some windows still resynthesize and the result holds.
  const net::Network input = mcnc::random_multilevel(
      "splitter", /*num_inputs=*/20, /*num_outputs=*/5, /*num_nodes=*/90,
      /*min_arity=*/4, /*max_arity=*/8, /*seed=*/3);
  WindowedFlowOptions small = engine_options(12, 48, 1);
  small.window_bdd_budget = 2000;
  small.max_split_depth = 4;
  WindowedFlowResult result = run_windowed_flow(input, small);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
  if (result.stats.windows_split > 0) {
    EXPECT_GT(result.stats.windows_budget_fallbacks, 0);
  }
}

TEST(WindowedFlowTest, PassthroughOnlyNetworkRoundTrips) {
  // Already k-feasible network: nothing to resynthesize; the stitch is a
  // pure clone and must preserve interface names and semantics.
  const net::Network input = mcnc::make_circuit("count");
  ASSERT_TRUE(input.is_k_feasible(5));
  WindowedFlowResult result = run_windowed_flow(input, engine_options(8, 32, 1));
  EXPECT_EQ(result.stats.windows_resynthesized, 0);
  EXPECT_GT(result.stats.windows_passthrough, 0);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
  ASSERT_EQ(result.network.inputs().size(), input.inputs().size());
  for (std::size_t i = 0; i < input.inputs().size(); ++i) {
    EXPECT_EQ(result.network.node(result.network.inputs()[i]).name,
              input.node(input.inputs()[i]).name);
  }
}

TEST(WindowedFlowTest, StatsArePipedThroughBaseline) {
  const net::Network input = mcnc::make_circuit("rd84");
  WindowedFlowOptions options = engine_options(10, 32, 2);
  const baseline::BaselineResult result =
      baseline::run_windowed_system(input, options, /*verify_vectors=*/128);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.luts, 0);
  EXPECT_GT(result.stats.windows_extracted, 0);
  EXPECT_GT(result.stats.window_peak_nodes, 0);
  EXPECT_LE(result.stats.window_peak_inputs, 10);
  EXPECT_TRUE(result.network.is_k_feasible(5));
  EXPECT_GT(result.clbs, 0);
}

TEST(WindowedFlowTest, SplitFallbackIsBitIdenticalAtEveryThreadCount) {
  // The split path re-extracts from the worker's materialized sub-network,
  // never the host; a budget tight enough to force splits must still give
  // the same stitched BLIF at threads 1, 2, 4 and 8.
  const net::Network input = mcnc::random_multilevel(
      "splitmatrix", /*num_inputs=*/20, /*num_outputs=*/5, /*num_nodes=*/90,
      /*min_arity=*/4, /*max_arity=*/8, /*seed=*/3);
  std::string reference_blif;
  int reference_splits = 0;
  for (int threads : {1, 2, 4, 8}) {
    WindowedFlowOptions options = engine_options(12, 48, threads);
    options.window_bdd_budget = 2000;
    options.max_split_depth = 4;
    const WindowedFlowResult result = run_windowed_flow(input, options);
    if (threads == 1) {
      EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
      ASSERT_GT(result.stats.windows_split, 0)
          << "budget no longer forces the split path; tighten it";
      reference_blif = net::write_blif_string(result.network);
      reference_splits = result.stats.windows_split;
      continue;
    }
    EXPECT_EQ(net::write_blif_string(result.network), reference_blif)
        << "diverges at threads=" << threads;
    EXPECT_EQ(result.stats.windows_split, reference_splits);
  }
}

TEST(WindowedFlowTest, OneWorkerWhenOnlyOneWindowNeedsWork) {
  // One wide node == one resynthesis task: --window-threads clamps to the
  // workload, so even threads=8 starts a single pool worker.
  net::Network input("one_wide");
  std::vector<net::NodeId> fanins;
  for (char c = 'a'; c < 'a' + 7; ++c) {
    fanins.push_back(input.add_input(std::string(1, c)));
  }
  tt::TruthTable parity = tt::TruthTable::zeros(7);
  for (int v = 0; v < 7; ++v) parity ^= tt::TruthTable::var(7, v);
  const net::NodeId wide = input.add_logic_tt("wide", fanins, parity);
  input.add_output("f", wide);

  WindowedFlowResult result = run_windowed_flow(input, engine_options(8, 32, 8));
  EXPECT_EQ(result.stats.windows_resynthesized, 1);
  EXPECT_EQ(result.stats.window_workers, 1);
  EXPECT_EQ(result.stats.window_steals, 0u);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);

  const WindowedFlowResult serial =
      run_windowed_flow(input, engine_options(8, 32, 1));
  EXPECT_EQ(net::write_blif_string(result.network),
            net::write_blif_string(serial.network));
}

TEST(WindowedFlowTest, SchedulingTelemetryReflectsTheParallelPath) {
  // Wide-arity nodes throughout, small windows: many resynthesis tasks, so
  // threads=4 genuinely runs several workers; threads=1 runs one.
  const net::Network input = mcnc::random_multilevel(
      "telemetry", /*num_inputs=*/20, /*num_outputs=*/5, /*num_nodes=*/80,
      /*min_arity=*/6, /*max_arity=*/8, /*seed=*/5);
  const WindowedFlowResult serial =
      run_windowed_flow(input, engine_options(10, 40, 1));
  ASSERT_GT(serial.stats.windows_resynthesized, 1)
      << "workload no longer yields multiple resynthesis tasks";
  EXPECT_EQ(serial.stats.window_workers, 1);
  EXPECT_GT(serial.stats.window_worker_busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(serial.stats.window_worker_busy_seconds,
                   serial.stats.window_worker_busy_peak_seconds);
  // The slowest-window high-water mark is tracked at every thread count.
  EXPECT_GT(serial.stats.window_max_seconds, 0.0);
  EXPECT_GE(serial.stats.window_max_index, 0);
  EXPECT_LT(serial.stats.window_max_index, serial.stats.windows_extracted);

  const WindowedFlowResult parallel =
      run_windowed_flow(input, engine_options(10, 40, 4));
  EXPECT_EQ(parallel.stats.window_workers, 4);
  EXPECT_EQ(parallel.stats.window_steals, 0u);
  EXPECT_GT(parallel.stats.window_worker_busy_seconds, 0.0);
  EXPECT_GE(parallel.stats.window_worker_busy_seconds,
            parallel.stats.window_worker_busy_peak_seconds);
  EXPECT_GE(parallel.stats.window_max_index, 0);
}

TEST(WindowedFlowTest, WindowCountersAreThreadInvariant) {
  const net::Network input = mcnc::make_circuit("apex7");
  const WindowedFlowResult one = run_windowed_flow(input, engine_options(10, 40, 1));
  const WindowedFlowResult four = run_windowed_flow(input, engine_options(10, 40, 4));
  EXPECT_EQ(one.stats.windows_extracted, four.stats.windows_extracted);
  EXPECT_EQ(one.stats.windows_resynthesized, four.stats.windows_resynthesized);
  EXPECT_EQ(one.stats.windows_passthrough, four.stats.windows_passthrough);
  EXPECT_EQ(one.stats.windows_split, four.stats.windows_split);
  EXPECT_EQ(one.stats.window_peak_inputs, four.stats.window_peak_inputs);
  EXPECT_EQ(one.stats.window_peak_nodes, four.stats.window_peak_nodes);
  EXPECT_EQ(net::write_blif_string(one.network),
            net::write_blif_string(four.network));
}

}  // namespace
}  // namespace hyde::part
