/// \file clique_oracle.hpp
/// \brief Test-only oracle for graph::clique_partition: the original
/// recount-from-scratch formulation of the merge heuristic. O(n^4) worst
/// case; the incremental production implementation must reproduce its
/// partitions exactly (same selection order, tie-break and member order).

#pragma once

#include <vector>

namespace hyde::graph {

/// Partitions {0..n-1} into cliques by repeatedly merging the adjacent pair
/// of super-vertices with the most common neighbours (ties to the smaller
/// index), recounting every pair from scratch on each merge.
std::vector<std::vector<int>> clique_partition_reference(
    int n, const std::vector<std::vector<char>>& adjacent);

}  // namespace hyde::graph
