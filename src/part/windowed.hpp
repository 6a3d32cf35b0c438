/// \file windowed.hpp
/// \brief Windowed decomposition engine: resynthesize a network of arbitrary
/// size one bounded window at a time.
///
/// `run_windowed_flow` partitions the host network into convex windows
/// (window.hpp), runs the existing decomposition flow (`core::run_flow`) on
/// each window that contains wide nodes — every window gets its own
/// `bdd::Manager` via its standalone sub-network, shared-nothing — and
/// stitches the per-window results back together in a deterministic,
/// topological-order merge. A single up-front extraction pass captures every
/// resynthesis candidate as a self-contained task (a plain-data
/// `WindowSnapshot`, or a prebuilt clone when a member is too wide for a
/// truth table), so workers materialize and resynthesize without ever
/// touching the host network, its manager, or any shared lock; split
/// fallback re-extracts from the worker's own materialized sub-network.
/// Every resynthesis task runs on a `runtime::JobScheduler` pool, submitted
/// longest first (stable sort by node count x support width, so ties keep
/// extraction order); the worker count clamps to the number of tasks, and a
/// run with no task starts no pool. Results are collected by window index,
/// so the stitched network is bit-identical at every thread count.
///
/// Memory governance: each window flow runs under a BDD node budget. A
/// window that blows past it is split in half (topological halves stay
/// convex) and retried; when the split depth is exhausted the window passes
/// through unmapped. Every resynthesized window gets the mapper cleanup and
/// an equivalence check against its sub-network; one that fails the check
/// likewise passes through (counted, never silently wrong); windows
/// that are already k-feasible skip resynthesis entirely. The engine never
/// aborts the run for a budget reason.

#pragma once

#include <cstddef>

#include "core/flow.hpp"
#include "net/network.hpp"
#include "part/window.hpp"

namespace hyde::part {

struct WindowedFlowOptions {
  /// Extraction budgets. WindowOptions::k is overridden by flow.k.
  WindowOptions window;
  /// Per-window flow configuration (seed, encoding policy, engine knobs).
  core::FlowOptions flow;
  /// Worker threads for window-level parallelism. Result-identical at any
  /// value — per-window flows are shared-nothing and seeded independently of
  /// the schedule.
  int threads = 1;
  /// Per-window BDD node budget for the flow's global manager (0 = no
  /// limit). A window exceeding it is split or passed through, never fatal.
  // hyde-knob-ok: governed budget; window_bench and tests set it.
  std::size_t window_bdd_budget = std::size_t{1} << 20;
  /// How many times a budget-blown window may be halved before passing
  /// through unmapped.
  // hyde-knob-ok: governed budget; window_bench and tests set it.
  int max_split_depth = 3;
};

struct WindowedFlowResult {
  net::Network network;
  /// Per-window FlowStats merged (core::FlowStats::merge) in window-index
  /// order, plus the windows_* counters (extraction, fallbacks, peaks, phase
  /// wall-clock).
  core::FlowStats stats;
};

/// Resynthesizes \p input window by window; the result computes the same
/// primary outputs. Deterministic for fixed (input, options) at every thread
/// count.
WindowedFlowResult run_windowed_flow(const net::Network& input,
                                     const WindowedFlowOptions& options);

}  // namespace hyde::part
