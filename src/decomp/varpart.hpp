/// \file varpart.hpp
/// \brief Bound (λ) set selection, in the spirit of the BDD-based algorithm
/// of Jiang et al. [2] that the paper adopts for Problem 1.
///
/// The selector greedily grows a bound set of the requested size, at each
/// step adding the variable that minimizes the number of chart columns
/// (equivalently compatible classes for completely specified functions) —
/// the same cost the paper's encoding minimizes downstream. Pseudo primary
/// inputs can be biased toward the free set (Section 4.3 recommends keeping
/// them close to the output).

#pragma once

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

/// Selects a bound set of options.bound_size variables out of \p support
/// (the function's support in \p mgr), minimizing the compatible-class count.
/// The remaining support becomes the free set.
VarPartitionResult select_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                    const std::vector<int>& support,
                                    const VarPartitionOptions& options);

}  // namespace hyde::decomp
