/// \file varpart.hpp
/// \brief Bound (λ) set selection, in the spirit of the BDD-based algorithm
/// of Jiang et al. [2] that the paper adopts for Problem 1.
///
/// The selector greedily grows a bound set of the requested size, at each
/// step adding the variable that minimizes the number of chart columns
/// (equivalently compatible classes for completely specified functions) —
/// the same cost the paper's encoding minimizes downstream; ties go to the
/// smaller variable index. Pseudo primary inputs can be biased toward the
/// free set (Section 4.3 recommends keeping them close to the output).
///
/// Greedy growth is prefix-closed: the size-s bound set is the first s picks
/// of the growth at any larger size. The flow tries bound sizes k down to 2,
/// so it grows once (grow_bound_set) and reads the prefixes instead of
/// searching again at each size. Both functions keep no state between calls
/// and run serially on the caller's thread; parallelism lives at the job and
/// window level only (docs/PERF.md).

#pragma once

#include <cstdint>
#include <vector>

#include "decomp/chart.hpp"
#include "decomp/compatible.hpp"

namespace hyde::decomp {

struct VarPartitionOptions {
  int bound_size = 4;  ///< desired λ-set size (usually the LUT input count k)
  /// Variables to keep out of the bound set unless unavoidable (e.g. pseudo
  /// primary inputs, per Section 4.3).
  std::vector<int> avoid;
  /// Require the decomposition to be non-trivial (code bits < bound size);
  /// when impossible the result reports success=false.
  bool require_nontrivial = true;
  DcPolicy dc_policy = DcPolicy::kCliquePartition;
};

struct VarPartitionResult {
  bool success = false;
  std::vector<int> bound;
  std::vector<int> free;
  int num_classes = 0;
  int code_bits() const {
    int bits = 0;
    while ((1 << bits) < num_classes) ++bits;
    return bits;
  }
};

/// Search counters, summed over the calls given the same sink. Volatile for
/// report purposes: NPN-template misses, and so the searches they run,
/// depend on cache timing.
struct SearchStats {
  std::uint64_t selects = 0;               ///< growths run
  std::uint64_t candidates_evaluated = 0;  ///< candidate charts counted
  double seconds = 0.0;                    ///< wall clock inside the calls
};

/// Greedy growth over \p support: returns up to \p size variables in pick
/// order, each minimizing the column count of the picks so far plus itself.
/// Variables in \p avoid are picked only once the others are exhausted.
/// Throws std::invalid_argument if \p size exceeds kMaxBoundVars.
std::vector<int> grow_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                const std::vector<int>& support, int size,
                                const std::vector<int>& avoid,
                                SearchStats* stats = nullptr);

/// Selects a bound set of options.bound_size variables out of \p support
/// (the function's support in \p mgr), minimizing the compatible-class count:
/// the sorted growth of that size. The remaining support becomes the free
/// set. \p stats, when given, counts the growth and the time of the call.
VarPartitionResult select_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                    const std::vector<int>& support,
                                    const VarPartitionOptions& options,
                                    SearchStats* stats = nullptr);

}  // namespace hyde::decomp
