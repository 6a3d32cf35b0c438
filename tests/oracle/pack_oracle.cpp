#include "oracle/pack_oracle.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "graph/matching.hpp"

namespace hyde::mapper {

ClbPacking pack_xc3000_reference(const net::Network& network) {
  std::vector<net::NodeId> nodes;
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic || node.dead) continue;
    if (node.fanins.size() > 5) {
      throw std::invalid_argument("pack_xc3000: node wider than 5 inputs: " +
                                  node.name);
    }
    nodes.push_back(id);
  }

  // Pairing graph: two ≤4-input nodes are pair-compatible when their fanin
  // union has at most 5 distinct signals and neither reads the other (a CLB
  // has no internal feed path between its two LUT halves on the XC3000).
  std::vector<std::set<net::NodeId>> fanin_sets(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& fanins = network.node(nodes[i]).fanins;
    fanin_sets[i] = std::set<net::NodeId>(fanins.begin(), fanins.end());
  }
  std::vector<std::pair<int, int>> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (fanin_sets[i].size() > 4) continue;
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (fanin_sets[j].size() > 4) continue;
      if (fanin_sets[i].count(nodes[j]) != 0 ||
          fanin_sets[j].count(nodes[i]) != 0) {
        continue;
      }
      std::set<net::NodeId> merged = fanin_sets[i];
      merged.insert(fanin_sets[j].begin(), fanin_sets[j].end());
      if (merged.size() <= 5) {
        edges.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  const auto mate =
      graph::max_cardinality_matching(static_cast<int>(nodes.size()), edges);

  ClbPacking packing;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int m = mate[i];
    if (m < 0) {
      ++packing.singles;
    } else if (m > static_cast<int>(i)) {
      ++packing.paired;
    }
  }
  packing.num_clbs = packing.singles + packing.paired;
  return packing;
}

}  // namespace hyde::mapper
