/// \file matching_property_test.cpp
/// \brief Randomized property tests for the graph algorithms behind class
/// grouping and chart assembly: the incremental packed-bitset
/// clique_partition must reproduce the recount-from-scratch reference
/// partition exactly (same cliques, same order), and max_weight_b_matching /
/// Edmonds blossom matching must match exhaustive brute force on every small
/// seeded instance.

#include "graph/matching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "oracle/clique_oracle.hpp"

namespace hyde::graph {
namespace {

std::vector<std::vector<char>> random_adjacency(std::mt19937_64& rng, int n,
                                                int edge_denominator) {
  std::vector<std::vector<char>> adj(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng() % static_cast<std::uint64_t>(edge_denominator) == 0) {
        adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        adj[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  return adj;
}

TEST(CliquePartitionEquivalence, IncrementalMatchesReferenceOnRandomGraphs) {
  // The incremental engine must be *partition-identical* to the reference,
  // not merely valid: the flow's class order (hence encodings and networks)
  // depends on the exact cliques in their exact order.
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 24);
    const int denominator = 2 + static_cast<int>(rng() % 4);
    const auto adj = random_adjacency(rng, n, denominator);
    EXPECT_EQ(clique_partition(n, adj), clique_partition_reference(n, adj))
        << "trial " << trial << " n=" << n;
  }
}

TEST(CliquePartitionEquivalence, DenseAndSparseExtremes) {
  for (int n : {1, 2, 3, 8, 17, 33, 64, 65}) {
    std::vector<std::vector<char>> empty(
        static_cast<std::size_t>(n),
        std::vector<char>(static_cast<std::size_t>(n), 0));
    EXPECT_EQ(clique_partition(n, empty), clique_partition_reference(n, empty))
        << "empty n=" << n;
    std::vector<std::vector<char>> complete = empty;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          complete[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              1;
        }
      }
    }
    EXPECT_EQ(clique_partition(n, complete),
              clique_partition_reference(n, complete))
        << "complete n=" << n;
  }
}

TEST(BMatchingProperty, OptimalOnSeededRandomInstances) {
  // Independent of matching_test's sweep: denser weight range, capacities up
  // to 3, and instances where edges repeat a (left, right) pair.
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const int nl = 1 + static_cast<int>(rng() % 5);
    const int nr = 1 + static_cast<int>(rng() % 3);
    std::vector<int> cap(static_cast<std::size_t>(nr));
    for (auto& c : cap) c = 1 + static_cast<int>(rng() % 3);
    std::vector<BMatchEdge> edges;
    const int num_edges = static_cast<int>(rng() % 9);
    for (int e = 0; e < num_edges; ++e) {
      edges.push_back({static_cast<int>(rng() % static_cast<std::uint64_t>(nl)),
                       static_cast<int>(rng() % static_cast<std::uint64_t>(nr)),
                       static_cast<double>(1 + rng() % 20)});
    }
    // Brute force: every left vertex picks one incident edge or none.
    double best = 0.0;
    std::vector<int> choice(static_cast<std::size_t>(nl), -1);
    std::function<void(int, double)> enumerate = [&](int left, double acc) {
      if (left == nl) {
        best = std::max(best, acc);
        return;
      }
      enumerate(left + 1, acc);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].left != left) continue;
        int used = 0;
        for (int prev = 0; prev < left; ++prev) {
          if (choice[static_cast<std::size_t>(prev)] >= 0 &&
              edges[static_cast<std::size_t>(
                        choice[static_cast<std::size_t>(prev)])].right ==
                  edges[e].right) {
            ++used;
          }
        }
        if (used < cap[static_cast<std::size_t>(edges[e].right)]) {
          choice[static_cast<std::size_t>(left)] = static_cast<int>(e);
          enumerate(left + 1, acc + edges[e].weight);
          choice[static_cast<std::size_t>(left)] = -1;
        }
      }
    };
    enumerate(0, 0.0);
    const auto result = max_weight_b_matching(nl, nr, cap, edges);
    EXPECT_DOUBLE_EQ(result.total_weight, best) << "trial " << trial;
  }
}

TEST(BlossomProperty, MaximumOnSeededGraphsUpToEight) {
  // Every n <= 8 with a fresh seeded edge set per trial; includes the dense
  // regime (denominator 2) where blossom contractions are common.
  std::mt19937_64 rng(90210);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 7);
    const int denominator = 2 + static_cast<int>(rng() % 2);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng() % static_cast<std::uint64_t>(denominator) == 0) {
          edges.emplace_back(i, j);
        }
      }
    }
    int best = 0;
    std::function<void(std::size_t, std::vector<char>&, int)> enumerate =
        [&](std::size_t e, std::vector<char>& used, int size) {
          best = std::max(best, size);
          if (e == edges.size()) return;
          enumerate(e + 1, used, size);
          auto [u, v] = edges[e];
          if (!used[static_cast<std::size_t>(u)] &&
              !used[static_cast<std::size_t>(v)]) {
            used[static_cast<std::size_t>(u)] = 1;
            used[static_cast<std::size_t>(v)] = 1;
            enumerate(e + 1, used, size + 1);
            used[static_cast<std::size_t>(u)] = 0;
            used[static_cast<std::size_t>(v)] = 0;
          }
        };
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    enumerate(0, used, 0);
    const auto mate = max_cardinality_matching(n, edges);
    int matched = 0;
    for (int v = 0; v < n; ++v) {
      if (mate[static_cast<std::size_t>(v)] >= 0) ++matched;
    }
    EXPECT_EQ(matched / 2, best) << "trial " << trial << " n=" << n;
  }
}

}  // namespace
}  // namespace hyde::graph
