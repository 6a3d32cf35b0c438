/// \file pack_oracle.hpp
/// \brief Test-only oracle for mapper::pack_xc3000: the original all-pairs
/// packer. It tests every pair of ≤4-input nodes with a std::set union,
/// materializes the whole CLB pairing graph and runs the blossom matching of
/// graph/matching.hpp on it. O(n²) pair tests; the production packer must
/// return the identical ClbPacking (every maximum matching has one size).

#pragma once

#include "mapper/xc3000.hpp"

namespace hyde::mapper {

/// pack_xc3000 by maximum matching on the explicit all-pairs pairing graph.
/// Throws std::invalid_argument if some node has more than 5 inputs.
ClbPacking pack_xc3000_reference(const net::Network& network);

}  // namespace hyde::mapper
