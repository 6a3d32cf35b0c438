/// \file matching.hpp
/// \brief Graph algorithms backing the encoding procedure.
///
/// Three algorithms the paper relies on:
///  - clique partitioning (NP-complete; the polynomial heuristic of
///    Tseng/Siewiorek as presented in Gajski et al., "High-Level Synthesis"
///    [9]) — used for the don't-care assignment of Section 3.1;
///  - maximum-weight bipartite b-matching [12] — used for column-set
///    combination (Step 5 of the encoding algorithm, Figure 5);
///  - maximum-cardinality matching on general graphs [12] (Edmonds' blossom
///    algorithm) — used for row-set combination (Step 7) and, through the
///    same augmenting-path engine, for XC3000 CLB packing.

#pragma once

#include <cstdint>
#include <vector>

namespace hyde::graph {

/// Partitions the vertices {0..n-1} of an undirected graph into a small
/// number of cliques, each vertex in exactly one clique.
///
/// \param n number of vertices.
/// \param adjacent symmetric adjacency matrix (self loops ignored).
/// \returns cliques as vertex-index lists; their union is {0..n-1}.
///
/// Heuristic: repeatedly merge the adjacent pair of super-vertices with the
/// largest number of common neighbours (ties broken by smaller index) until
/// no adjacent pair remains. Polynomial time, deterministic.
///
/// Implementation: packed bitset adjacency rows with common-neighbour counts
/// maintained incrementally across merges (AND + popcount). Produces exactly
/// the partition of the recount-from-scratch formulation kept as the test
/// oracle (tests/oracle/clique_oracle.hpp) — the selection order, the
/// tie-break, and the member order are all preserved.
std::vector<std::vector<int>> clique_partition(
    int n, const std::vector<std::vector<char>>& adjacent);

/// One edge of a bipartite b-matching instance.
struct BMatchEdge {
  int left;       ///< left vertex index in [0, num_left)
  int right;      ///< right vertex index in [0, num_right)
  double weight;  ///< edge weight (only positive-weight edges can be chosen)
};

/// Result of max_weight_b_matching.
struct BMatchResult {
  /// For each left vertex, the matched right vertex or -1.
  std::vector<int> left_match;
  double total_weight = 0.0;
};

/// Maximum-weight bipartite b-matching: every left vertex is matched at most
/// once; right vertex j is matched at most right_capacity[j] times. Solved
/// exactly by successive shortest augmenting paths on a min-cost flow
/// network; augmentation stops when the best remaining path has non-positive
/// profit, so the result maximizes total weight (not cardinality).
BMatchResult max_weight_b_matching(int num_left, int num_right,
                                   const std::vector<int>& right_capacity,
                                   const std::vector<BMatchEdge>& edges);

/// Edmonds' augmenting-path search with blossom contraction, the one engine
/// behind both exact maximum-cardinality matchings in the tree:
/// max_cardinality_matching below (row-set merging, Step 7) and the XC3000
/// CLB packer (mapper/xc3000.cpp), which reads its graph's edges off width
/// buckets instead of adjacency lists.
///
/// The engine owns the matching and one alternating tree; the caller owns
/// the graph and the order in which edges are offered. A search starts a
/// tree at a free root and offers edges (v, to) from even vertices, which it
/// takes from queue() in any order: any order finds an augmenting path when
/// one exists from the root. A contraction appends the blossom's newly even
/// vertices to the queue in ascending index order, so a given edge order
/// yields one fixed matching.
class AugmentingPathSearch {
 public:
  /// An empty matching on vertices {0..n-1}.
  explicit AugmentingPathSearch(int n);

  /// Starts a tree at the free vertex \p root, which becomes the only even
  /// vertex; the previous tree's labels are cleared.
  void start(int root);
  /// Offers the edge (v, to) from the even vertex \p v: grows the tree or
  /// contracts a blossom. Returns true when \p to is free and so ends an
  /// augmenting path, which augment(to) then flips.
  bool offer(int v, int to);
  /// Flips the augmenting path from the root to \p end, the free vertex an
  /// offer just returned true for; the root and \p end become matched.
  void augment(int end);

  /// mates()[v] is v's partner or -1 if unmatched.
  const std::vector<int>& mates() const { return mate_; }
  /// The even vertices of the current tree in the order they were labelled.
  /// Offers append to it, so callers walk it by index.
  const std::vector<int>& queue() const { return queue_; }
  /// Every vertex of the current tree. After a search that found no
  /// augmenting path it is the Hungarian tree: no vertex on it lies on an
  /// augmenting path from any later root (Edmonds).
  const std::vector<int>& tree() const { return tree_; }

 private:
  void label_even(int v);
  void contract(int v, int to);
  int lca(int a, int b);
  void mark_path(int v, int b, int child, std::uint64_t mark);

  std::vector<int> mate_, parent_, base_;
  std::vector<int> tree_, queue_, blossom_;
  std::vector<char> even_;
  int root_ = -1;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> on_path_, in_blossom_;
};

/// Runs one search from every free vertex in index order over adjacency
/// lists \p adj (adj[v] lists v's neighbours), offering the even vertices'
/// edges in queue and list order, and augments each path found. If
/// \p search holds a matching of \p adj's graph on entry (the empty one, for
/// instance), it holds a maximum one afterwards: a vertex with no augmenting
/// path never gains one through later augmentations (Edmonds).
void augment_from_every_root(AugmentingPathSearch& search,
                             const std::vector<std::vector<int>>& adj);

/// Maximum-cardinality matching on a general undirected graph (Edmonds'
/// blossom algorithm, O(V^3)): augment_from_every_root over the edges'
/// adjacency lists, from the empty matching.
///
/// \param n number of vertices.
/// \param edges undirected edges as (u, v) vertex pairs.
/// \returns mate vector: mate[v] is v's partner or -1 if unmatched.
std::vector<int> max_cardinality_matching(
    int n, const std::vector<std::pair<int, int>>& edges);

}  // namespace hyde::graph
