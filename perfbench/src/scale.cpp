#include "scale.hpp"

#include <string>
#include <unordered_map>
#include <vector>

#include "mcnc/benchmarks.hpp"

namespace perfbench {

namespace {

using hyde::net::Network;
using hyde::net::NodeId;

constexpr int kConePairs = 15;
constexpr int kConeCount = 6;

/// Two outputs over inputs x0..x14, y0..y14, built from 2-input chains:
///   f = (x0 & ... & x14) | OR_i (xi & yi)
///   g = OR_i (xi & y(i+1 mod 15))
void add_cone(Network& out, int index) {
  using hyde::tt::TruthTable;
  const std::string p = "adv" + std::to_string(index) + "_";
  std::vector<NodeId> xs;
  std::vector<NodeId> ys;
  for (int i = 0; i < kConePairs; ++i) {
    xs.push_back(out.add_input(p + "x" + std::to_string(i)));
  }
  for (int i = 0; i < kConePairs; ++i) {
    ys.push_back(out.add_input(p + "y" + std::to_string(i)));
  }
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  NodeId acc = xs[0];
  for (int i = 1; i < kConePairs; ++i) {
    acc = out.add_logic_tt(p + "s" + std::to_string(i),
                           {acc, xs[static_cast<std::size_t>(i)]}, and2);
  }
  for (int i = 0; i < kConePairs; ++i) {
    const auto at = static_cast<std::size_t>(i);
    const NodeId prod =
        out.add_logic_tt(p + "fp" + std::to_string(i), {xs[at], ys[at]}, and2);
    acc = out.add_logic_tt(p + "fo" + std::to_string(i), {acc, prod}, or2);
  }
  out.add_output(p + "f", acc);
  NodeId gcc = hyde::net::kNoNode;
  for (int i = 0; i < kConePairs; ++i) {
    const auto next = static_cast<std::size_t>((i + 1) % kConePairs);
    const NodeId prod =
        out.add_logic_tt(p + "gp" + std::to_string(i),
                         {xs[static_cast<std::size_t>(i)], ys[next]}, and2);
    gcc = i == 0 ? prod
                 : out.add_logic_tt(p + "go" + std::to_string(i), {gcc, prod},
                                    or2);
  }
  out.add_output(p + "g", gcc);
}

}  // namespace

Network make_scale_netlist() {
  Network out("scale");
  for (int c = 0; c < 2; ++c) {
    const Network tile = hyde::mcnc::random_multilevel(
        "scale_tile", 64, 16, 40000, 3, 9, 21 + static_cast<std::uint64_t>(c));
    const std::string prefix = "t" + std::to_string(c) + "_";
    std::unordered_map<NodeId, NodeId> map;
    for (NodeId id : tile.topo_order()) {
      const hyde::net::Node& n = tile.node(id);
      if (n.kind == hyde::net::NodeKind::kInput) {
        map[id] = out.add_input(prefix + n.name);
        continue;
      }
      std::vector<NodeId> fanins;
      for (NodeId f : n.fanins) fanins.push_back(map.at(f));
      map[id] = out.add_logic_tt(prefix + n.name, fanins, tile.local_tt(id));
    }
    for (const hyde::net::Output& po : tile.outputs()) {
      out.add_output(prefix + po.name, map.at(po.driver));
    }
  }
  for (int c = 0; c < kConeCount; ++c) add_cone(out, c);
  return out;
}

}  // namespace perfbench
