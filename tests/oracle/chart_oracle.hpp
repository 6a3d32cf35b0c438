/// \file chart_oracle.hpp
/// \brief Test-only oracles for the decomposition-chart layer: chart
/// enumeration and column counting by recursive cofactoring over all
/// 2^|bound| bound-set assignments. The BDD-cut implementations in
/// decomp/chart.hpp must produce identical columns in identical order and
/// identical counts.

#pragma once

#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// enumerate_columns by recursive cofactoring (Θ(2^|bound|) cofactor pairs).
/// Throws std::invalid_argument if |bound| exceeds kMaxBoundVars.
std::vector<Column> enumerate_columns_recursive(const DecompSpec& spec);

/// count_columns by recursive cofactoring.
/// Throws std::invalid_argument if |bound| exceeds kMaxBoundVars.
int count_columns_recursive(const DecompSpec& spec);

}  // namespace hyde::decomp
