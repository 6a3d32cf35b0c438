/// \file chart.hpp
/// \brief Decomposition-chart enumeration (Roth–Karp / Ashenhurst substrate).
///
/// Given an incompletely specified function f over a manager's variables, a
/// bound (λ) set X and a free (μ) set Y, the *decomposition chart* has one
/// column per assignment to X; a column's *pattern* is the residual function
/// f(x, ·) of the free variables. This module enumerates the distinct
/// patterns (as ISF pairs of BDDs) together with, per pattern, its indicator
/// function over X: the bound-set minterms mapping to it.
///
/// Enumeration uses the BDD-cut method of Jiang et al. [2]: f is transferred
/// into a manager ordering the bound set on top, and the distinct (on, dc)
/// node pairs hanging below the cut — one per column — are discovered in a
/// single lock-step traversal costing O(nodes above the cut) instead of
/// 2^|X| cofactor pairs. Column indicators fall out of the same pair graph
/// by propagating bound-literal cubes top-down. The original
/// recursive-cofactor walk survives only as the test oracle the cut path is
/// cross-checked against (tests/oracle/chart_oracle.hpp).

#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"

namespace hyde::decomp {

/// An incompletely specified function inside a BDD manager.
struct IsfBdd {
  bdd::Bdd on;
  bdd::Bdd dc;

  /// The offset (specified-0 set); requires a manager.
  bdd::Bdd off() const { return ~(on | dc); }
};

/// A decomposition problem instance: which function, which variable split.
struct DecompSpec {
  bdd::Manager* mgr = nullptr;
  IsfBdd f;
  std::vector<int> bound;  ///< λ-set variable indices (chart columns)
  std::vector<int> free;   ///< μ-set variable indices (chart rows)
};

/// One distinct chart column pattern.
struct Column {
  IsfBdd pattern;   ///< residual function of the free variables
  bdd::Bdd indicator;  ///< function of the bound variables: 1 on this column's minterms
};

/// Hard cap on the bound-set size of the code that walks all 2^|bound|
/// bound-set assignments: select_bound_set, the joint classes of
/// joint_decompose and the recursive chart oracles. The cut-based chart
/// functions below have no such cap.
inline constexpr int kMaxBoundVars = 16;

/// Packed row-space signature of a chart column. Bit m (bit m%64 of word
/// m/64) is row minterm m over the shared signature variable set — the sorted
/// union of the member pattern supports, a subset of the free set. `on` is
/// the pattern onset, `care` the complement of its dc-set; bits beyond the
/// row count are zero in both, so whole-word operations need no tail mask.
///
/// Two columns are compatible iff
///   (a.on & b.care & ~b.on) == 0  and  (b.on & a.care & ~a.on) == 0
/// word-wise — exactly the BDD test `disjoint(a.on, b.off())` ∧
/// `disjoint(b.on, a.off())`, because every pattern is fully determined by
/// the signature variables.
struct ColumnSignature {
  std::vector<std::uint64_t> on;
  std::vector<std::uint64_t> care;
};

/// Largest shared row space (2^|signature variables|) that gets packed
/// signatures; wider charts decide compatibility with BDD tests.
inline constexpr int kMaxSignatureRows = 4096;

/// Derives the row signatures of \p columns, or returns an empty vector when
/// the shared row space exceeds kMaxSignatureRows (the caller then falls back
/// to BDD compatibility tests).
std::vector<ColumnSignature> column_signatures(
    const DecompSpec& spec, const std::vector<Column>& columns);

/// Enumerates the distinct column patterns of the chart. Deterministic:
/// columns are ordered by their smallest bound minterm.
/// Throws std::invalid_argument if the spec has no manager.
std::vector<Column> enumerate_columns(const DecompSpec& spec);

/// Number of distinct column patterns, without materializing indicators:
/// the BDD-cut method of Jiang et al. [2] counts the distinct (on, dc)
/// sub-function pairs hanging below the cut in O(|BDD|). This is exactly the
/// compatible-class count for completely specified functions and an upper
/// bound for ISFs. Throws std::invalid_argument if the spec has no manager.
int count_columns(const DecompSpec& spec);

/// Builds the BDD cube for an assignment to the given variables
/// (bit i of \p minterm corresponds to vars[i]).
bdd::Bdd minterm_cube(bdd::Manager& mgr, const std::vector<int>& vars,
                      std::uint64_t minterm);

}  // namespace hyde::decomp
