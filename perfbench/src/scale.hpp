/// \file scale.hpp
/// \brief Input generator for the windowed_scale workload.

#pragma once

#include "net/network.hpp"

namespace perfbench {

/// The ~19.5k-node netlist window_bench calls `scale`: two seeded multilevel
/// DAGs tiled side by side plus six order-adversarial cones of 2-input
/// nodes. Deterministic.
hyde::net::Network make_scale_netlist();

}  // namespace perfbench
