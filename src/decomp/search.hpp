/// \file search.hpp
/// \brief Intra-flow bound-set search engine: the greedy λ-set selection of
/// varpart.hpp behind a chart memo that spans a flow's repeated searches.
///
/// `select_bound_set` (varpart.hpp) greedily grows a bound set, evaluating
/// O(|support| × bound_size) candidate charts per decomposition step — and
/// the flow re-runs the *same* growth for every trial bound size and every
/// encoder trial image. The engine memoizes column counts per (ISF roots,
/// candidate bound set): re-searches at a smaller bound size replay the
/// identical candidate sequence, so they resolve almost entirely out of the
/// memo. Entries pin their root handles, which keeps node ids unique for the
/// lifetime of the entry; the memo clears itself when it would outgrow
/// kMemoCapacity entries.
///
/// The engine is serial: one engine per flow, called from that flow's thread.
/// Parallelism lives at the job and window level only (`runtime::run_batch`,
/// `part::run_windowed_flow`); docs/PERF.md records the measurements behind
/// that rule.
///
/// Determinism contract: for a fixed (f, support, options) the returned
/// `VarPartitionResult` is bit-identical to the one-shot `select_bound_set`,
/// whatever the memo holds. The counters (`SearchStats`) follow the memo's
/// contents and are reported only in volatile report sections.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "decomp/varpart.hpp"

namespace hyde::decomp {

/// Engine counters, accumulated across select() calls. Volatile for report
/// purposes: memo hits depend on what earlier selects left in the memo.
struct SearchStats {
  std::uint64_t selects = 0;               ///< select() invocations
  std::uint64_t candidates_evaluated = 0;  ///< charts actually traversed
  std::uint64_t memo_hits = 0;             ///< counts served from the memo
  std::uint64_t memo_clears = 0;           ///< capacity resets
  double seconds = 0.0;                    ///< wall-clock inside select()
};

/// Bound-set search engine over one BDD manager. Not thread-safe: one engine
/// per flow/Decomposer, called from that flow's thread only.
class BoundSetSearch {
 public:
  /// Memo entry cap; the memo clears itself when a greedy step would take it
  /// past this.
  static constexpr std::size_t kMemoCapacity = std::size_t{1} << 14;

  explicit BoundSetSearch(bdd::Manager& mgr);
  ~BoundSetSearch();

  BoundSetSearch(const BoundSetSearch&) = delete;
  BoundSetSearch& operator=(const BoundSetSearch&) = delete;

  /// Drop-in replacement for select_bound_set: same greedy growth, same
  /// tie-breaks, same result — with column counts served from the memo.
  VarPartitionResult select(const IsfBdd& f, const std::vector<int>& support,
                            const VarPartitionOptions& options);

  const SearchStats& stats() const { return stats_; }
  std::size_t memo_size() const;

 private:
  struct Memo;

  /// One greedy step: picks the pool variable minimizing the column count of
  /// bound ∪ {v} (ties to the smallest variable) and returns it.
  int grow_step(const IsfBdd& f, const std::vector<int>& support,
                const std::vector<int>& bound, const std::vector<int>& pool);

  bdd::Manager& mgr_;
  SearchStats stats_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace hyde::decomp
