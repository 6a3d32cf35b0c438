/// Property test for mapper::pack_xc3000: on every network it must return
/// the same ClbPacking as the all-pairs reference packer
/// (tests/oracle/pack_oracle.hpp). Covers seeded random 5-feasible networks,
/// hand-built corner cases and the mapped output of every registry circuit
/// under all five systems.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "oracle/pack_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

using net::Network;
using net::NodeId;

void expect_same_packing(const Network& net, const std::string& context) {
  const ClbPacking fast = pack_xc3000(net);
  const ClbPacking reference = pack_xc3000_reference(net);
  EXPECT_EQ(fast.num_clbs, reference.num_clbs) << context;
  EXPECT_EQ(fast.paired, reference.paired) << context;
  EXPECT_EQ(fast.singles, reference.singles) << context;
}

/// Adds a logic node over \p fanins (duplicates allowed); the function is
/// irrelevant to packing.
NodeId add_node(Network& net, const std::string& name,
                const std::vector<NodeId>& fanins) {
  if (fanins.empty()) return net.add_constant(name, true);
  const int k = static_cast<int>(fanins.size());
  return net.add_logic_tt(name, fanins, tt::TruthTable::symmetric(k, {1}));
}

/// Shape of a random network: the weight of each raw fanin count 0..5, the
/// chance (percent) of a duplicate fanin, of reading the shared hub signal
/// and of reading one of the last few nodes (feed pairs), and the chance a
/// finished node is marked dead.
struct Shape {
  std::array<int, 6> width_weight;
  int dup_pct = 0;
  int hub_pct = 0;
  int recent_pct = 0;
  int dead_pct = 0;
};

Network random_network(std::uint64_t seed, int num_inputs, int num_logic,
                       const Shape& shape) {
  std::mt19937_64 rng(seed);
  const auto pct = [&](int p) { return static_cast<int>(rng() % 100) < p; };
  Network net("rand" + std::to_string(seed));
  std::vector<NodeId> signals;
  for (int i = 0; i < num_inputs; ++i) {
    signals.push_back(net.add_input("x" + std::to_string(i)));
  }
  const NodeId hub = signals.front();
  std::discrete_distribution<int> width(shape.width_weight.begin(),
                                        shape.width_weight.end());
  std::vector<NodeId> logic;
  for (int i = 0; i < num_logic; ++i) {
    const int k = width(rng);
    std::vector<NodeId> fanins;
    while (static_cast<int>(fanins.size()) < k) {
      NodeId pick;
      if (!fanins.empty() && pct(shape.dup_pct)) {
        pick = fanins[rng() % fanins.size()];
      } else if (pct(shape.hub_pct)) {
        pick = hub;
      } else if (pct(shape.recent_pct)) {
        const std::size_t back = std::min<std::size_t>(signals.size(), 4);
        pick = signals[signals.size() - 1 - rng() % back];
      } else {
        pick = signals[rng() % signals.size()];
      }
      fanins.push_back(pick);
    }
    const NodeId id = add_node(net, "n" + std::to_string(i), fanins);
    signals.push_back(id);
    logic.push_back(id);
  }
  for (const NodeId id : logic) {
    if (pct(shape.dead_pct)) {
      net.node(id).dead = true;
    } else {
      net.add_output("o" + std::to_string(id), id);
    }
  }
  return net;
}

TEST(PackProperty, RandomTwoAndThreeInputNetworks) {
  // Mostly 2- and 3-input nodes: the dense part of the pairing graph.
  const Shape shape{{1, 3, 40, 40, 10, 6}, 0, 5, 20, 0};
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const int inputs = 3 + static_cast<int>(seed % 9);
    const int size = 4 + static_cast<int>(seed % 37) * 5;
    const Network net = random_network(seed, inputs, size, shape);
    expect_same_packing(net, net.model_name());
  }
}

TEST(PackProperty, RandomMixedWidthNetworks) {
  // Wider nodes over few inputs: many sparse edges through shared fanins.
  const Shape shape{{1, 2, 20, 25, 35, 17}, 10, 15, 15, 5};
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    const int inputs = 5 + static_cast<int>(seed % 5);
    const int size = 2 + static_cast<int>(seed % 23) * 7;
    const Network net = random_network(seed, inputs, size, shape);
    expect_same_packing(net, net.model_name());
  }
}

TEST(PackProperty, FeedPairsDuplicatesConstantsDeadAndHighFanout) {
  const Shape shape{{8, 8, 30, 30, 16, 8}, 25, 40, 50, 15};
  for (std::uint64_t seed = 2000; seed < 2060; ++seed) {
    const int inputs = 2 + static_cast<int>(seed % 4);
    const int size = 10 + static_cast<int>(seed % 11) * 9;
    const Network net = random_network(seed, inputs, size, shape);
    expect_same_packing(net, net.model_name());
  }
}

TEST(PackProperty, HandBuiltCornerCases) {
  Network net("corners");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId d = net.add_input("d");
  // A feed chain: each node reads the previous one.
  NodeId prev = add_node(net, "chain0", {a, b});
  for (int i = 1; i < 6; ++i) {
    prev = add_node(net, "chain" + std::to_string(i), {prev, c});
  }
  // Duplicate fanins: 5 raw, 2 distinct.
  const NodeId dup = add_node(net, "dup", {a, a, b, b, a});
  // Constants and a buffer.
  const NodeId k0 = add_node(net, "k0", {});
  const NodeId k1 = add_node(net, "k1", {});
  const NodeId buf = add_node(net, "buf", {d});
  // A high-fanout node read by every 4-input node below.
  const NodeId hub = add_node(net, "hub", {a, b, c});
  std::vector<NodeId> wide;
  for (int i = 0; i < 12; ++i) {
    wide.push_back(add_node(net, "w" + std::to_string(i),
                            {hub, a, i % 2 == 0 ? c : d, b}));
  }
  // A dead node that would otherwise pair.
  const NodeId dead = add_node(net, "dead", {c, d});
  net.node(dead).dead = true;
  for (const NodeId id : {prev, dup, k0, k1, buf, hub}) {
    net.add_output("o" + std::to_string(id), id);
  }
  for (const NodeId id : wide) net.add_output("o" + std::to_string(id), id);
  expect_same_packing(net, "corners");
}

TEST(PackProperty, WidestFirstChoiceNeedsAnAugmentingPath) {
  // a1 may pair with b1 or b2; a2 reads b2, so it may pair only with b1.
  // Taking the widest free partner, b1 takes a1 and strands a2 and b2; only
  // the augmenting path b2-a1=b1-a2 reaches two pairs.
  Network net("trap");
  std::vector<NodeId> x;
  for (int i = 0; i < 9; ++i) {
    x.push_back(net.add_input("x" + std::to_string(i)));
  }
  const NodeId b1 = add_node(net, "b1", {x[0], x[1]});
  const NodeId b2 = add_node(net, "b2", {x[2], x[3]});
  const NodeId a1 = add_node(net, "a1", {x[4], x[5], x[6]});
  const NodeId a2 = add_node(net, "a2", {b2, x[7], x[8]});
  for (const NodeId id : {b1, b2, a1, a2}) {
    net.add_output("o" + std::to_string(id), id);
  }
  expect_same_packing(net, "trap");
  EXPECT_EQ(pack_xc3000(net).paired, 2);
}

TEST(PackProperty, EmptyNetwork) {
  Network net("empty");
  net.add_input("a");
  expect_same_packing(net, "empty");
  EXPECT_EQ(pack_xc3000(net).num_clbs, 0);
}

TEST(PackProperty, AllFiveInputNetwork) {
  // Every node reads the five most recent signals: five distinct inputs.
  Network net("all5");
  std::vector<NodeId> signals;
  for (int i = 0; i < 5; ++i) {
    signals.push_back(net.add_input("x" + std::to_string(i)));
  }
  for (int i = 0; i < 60; ++i) {
    const std::vector<NodeId> fanins(signals.end() - 5, signals.end());
    signals.push_back(add_node(net, "n" + std::to_string(i), fanins));
    net.add_output("o" + std::to_string(i), signals.back());
  }
  expect_same_packing(net, "all-5");
  EXPECT_EQ(pack_xc3000(net).singles, 60);
  EXPECT_EQ(pack_xc3000(net).paired, 0);
}

TEST(PackProperty, BothRejectMoreThanFiveRawFanins) {
  // Six raw fanins, three distinct: still wider than a CLB's input list.
  Network net("wide");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  net.add_output("o", add_node(net, "w", {a, b, c, a, b, c}));
  EXPECT_THROW(pack_xc3000(net), std::invalid_argument);
  EXPECT_THROW(pack_xc3000_reference(net), std::invalid_argument);
}

class PackRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(PackRegistry, MappedOutputOfEverySystemMatchesReference) {
  const Network input = mcnc::make_circuit(GetParam());
  for (const baseline::System system :
       {baseline::System::kHyde, baseline::System::kImodecLike,
        baseline::System::kFgsynLike, baseline::System::kSawadaLike,
        baseline::System::kSawadaResubLike}) {
    const auto result = baseline::run_system(input, system, 5, /*verify=*/0);
    expect_same_packing(result.network,
                        GetParam() + "/" + baseline::system_name(system));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, PackRegistry,
                         ::testing::ValuesIn(mcnc::all_circuits()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace hyde::mapper
