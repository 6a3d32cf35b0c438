/// \file compatible.hpp
/// \brief Compatible classes and don't-care assignment (paper Section 3.1).
///
/// For a completely specified function, chart columns with equal patterns are
/// compatible and compatibility is an equivalence — classes are simply the
/// distinct columns. With don't cares, two columns are compatible iff they
/// agree wherever *both* care; this relation is not transitive, so grouping
/// columns into a minimum number of classes is the NP-complete *clique
/// partitioning* problem on the column-compatibility graph. The paper assigns
/// don't cares by solving it with the polynomial heuristic of [9]
/// (graph/matching.hpp), minimizing the class count rather than the supports
/// as [8] did.

#pragma once

#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// One compatible class: merged behaviour of its member columns.
struct CompatibleClass {
  IsfBdd function;     ///< class function over the free variables
  bdd::Bdd indicator;  ///< function of the bound variables selecting the class
  std::vector<int> columns;  ///< member column indices (into ClassResult::columns)
};

/// The outcome of compatible-class computation.
struct ClassResult {
  std::vector<Column> columns;
  std::vector<CompatibleClass> classes;

  int num_classes() const { return static_cast<int>(classes.size()); }
  /// Number of α-functions needed by a rigid strict encoding.
  int code_bits() const;
};

/// Policy for grouping columns into classes.
enum class DcPolicy {
  /// Treat each distinct (on, dc) column as its own class; no DC merging.
  kDistinctColumns,
  /// Merge compatible columns via clique partitioning (the paper's method).
  kCliquePartition,
};

/// Counters for the class-computation engine. All values are volatile
/// observations (which fast path fired); results never depend on them.
struct ClassStats {
  /// Column pairs decided by packed-signature word operations.
  std::uint64_t signature_pairs = 0;
  /// Column pairs decided by BDD disjointness tests (fallback path).
  std::uint64_t bdd_pairs = 0;
};

/// Computes the compatible classes of the chart of \p spec. Column
/// compatibility is decided by packed row signatures when the chart's row
/// space fits kMaxSignatureRows and by per-pair BDD disjointness otherwise;
/// both decide every pair identically. \p stats, when given, counts the pairs
/// each path decided.
ClassResult compute_compatible_classes(
    const DecompSpec& spec, DcPolicy policy = DcPolicy::kCliquePartition,
    ClassStats* stats = nullptr);

/// Number of compatible classes only (convenience for cost functions).
int count_compatible_classes(const DecompSpec& spec,
                             DcPolicy policy = DcPolicy::kCliquePartition,
                             ClassStats* stats = nullptr);

/// True iff two column patterns agree on their common care set.
bool columns_compatible(bdd::Manager& mgr, const IsfBdd& a, const IsfBdd& b);

/// Merges a set of pairwise-compatible columns into one class function:
/// onset is the union of onsets, don't-care set shrinks to the positions no
/// member cares about.
IsfBdd merge_columns(bdd::Manager& mgr, const std::vector<Column>& columns,
                     const std::vector<int>& members);

}  // namespace hyde::decomp
