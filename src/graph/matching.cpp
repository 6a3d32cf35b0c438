#include "graph/matching.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace hyde::graph {

// ---------------------------------------------------------------------------
// Clique partitioning (Tseng/Siewiorek-style heuristic, per [9])
// ---------------------------------------------------------------------------

namespace {

// Packed-adjacency primitives. A super-vertex's neighbourhood is a bitset of
// `words` uint64 words; rows carry no self bits and dead super-vertices keep
// all-zero rows with their columns cleared everywhere, so raw word ops need
// no alive mask.

// hyde-hot
inline bool row_bit(const std::uint64_t* row, int k) {
  return ((row[static_cast<std::size_t>(k) >> 6U] >>
           (static_cast<unsigned>(k) & 63U)) &
          1U) != 0U;
}

// hyde-hot
inline void row_bit_assign(std::uint64_t* row, int k, bool value) {
  const std::uint64_t mask = std::uint64_t{1}
                             << (static_cast<unsigned>(k) & 63U);
  if (value) {
    row[static_cast<std::size_t>(k) >> 6U] |= mask;
  } else {
    row[static_cast<std::size_t>(k) >> 6U] &= ~mask;
  }
}

// hyde-hot
inline int row_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  int count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += std::popcount(a[w] & b[w]);
  }
  return count;
}

/// Merge-pair selection: scans alive adjacent pairs in ascending (a, b)
/// order and keeps the first pair attaining the maximum common-neighbour
/// count — the reference implementation's tie-break (strict `>`).
// hyde-hot
inline bool select_merge_pair(int n, std::size_t words, const char* alive,
                              const std::uint64_t* adj, const int* cn,
                              int* best_a, int* best_b) {
  int best_common = -1;
  *best_a = -1;
  *best_b = -1;
  for (int a = 0; a < n; ++a) {
    if (alive[static_cast<std::size_t>(a)] == 0) continue;
    const std::uint64_t* row = adj + static_cast<std::size_t>(a) * words;
    const int* counts =
        cn + static_cast<std::size_t>(a) * static_cast<std::size_t>(n);
    for (int b = a + 1; b < n; ++b) {
      if (alive[static_cast<std::size_t>(b)] == 0) continue;
      if (!row_bit(row, b)) continue;
      if (counts[static_cast<std::size_t>(b)] > best_common) {
        best_common = counts[static_cast<std::size_t>(b)];
        *best_a = a;
        *best_b = b;
      }
    }
  }
  return *best_a >= 0;
}

/// Adds `delta` to the common-neighbour count of every unordered pair drawn
/// from `list[0..count)` — the inclusion-exclusion building block of the
/// incremental merge update.
// hyde-hot
inline void adjust_pair_counts(const int* list, int count, int delta, int* cn,
                               int n) {
  for (int i = 0; i < count; ++i) {
    int* row = cn + static_cast<std::size_t>(list[i]) *
                        static_cast<std::size_t>(n);
    for (int j = i + 1; j < count; ++j) {
      row[static_cast<std::size_t>(list[j])] += delta;
      cn[static_cast<std::size_t>(list[j]) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(list[i])] += delta;
    }
  }
}

}  // namespace

std::vector<std::vector<int>> clique_partition(
    int n, const std::vector<std::vector<char>>& adjacent) {
  if (static_cast<int>(adjacent.size()) != n) {
    throw std::invalid_argument("clique_partition: adjacency size mismatch");
  }
  if (n == 0) return {};
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t words = (un + 63) / 64;

  // Packed super-vertex adjacency rows (self loops dropped) plus the dense
  // common-neighbour matrix cn[a·n+b] = |N(a) ∩ N(b)|. Both are maintained
  // incrementally across merges; cn always equals the reference recount
  // because rows carry no self bits and dead columns are cleared, so the
  // popcount of a row intersection never counts a, b, or dead vertices.
  std::vector<std::uint64_t> adj(un * words, 0);
  for (int i = 0; i < n; ++i) {
    std::uint64_t* row = adj.data() + static_cast<std::size_t>(i) * words;
    for (int j = 0; j < n; ++j) {
      if (i != j &&
          adjacent[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] !=
              0) {
        row_bit_assign(row, j, true);
      }
    }
  }
  std::vector<int> cn(un * un, 0);
  for (int a = 0; a < n; ++a) {
    const std::uint64_t* row_a = adj.data() + static_cast<std::size_t>(a) * words;
    for (int b = a + 1; b < n; ++b) {
      const int c = row_and_popcount(
          row_a, adj.data() + static_cast<std::size_t>(b) * words, words);
      cn[static_cast<std::size_t>(a) * un + static_cast<std::size_t>(b)] = c;
      cn[static_cast<std::size_t>(b) * un + static_cast<std::size_t>(a)] = c;
    }
  }

  std::vector<std::vector<int>> members(un);
  std::vector<char> alive(un, 1);
  for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = {i};

  // Scratch neighbour lists, reused across merges.
  std::vector<int> na, nb, nab;
  na.reserve(un);
  nb.reserve(un);
  nab.reserve(un);

  int best_a = -1;
  int best_b = -1;
  while (select_merge_pair(n, words, alive.data(), adj.data(), cn.data(),
                           &best_a, &best_b)) {
    std::uint64_t* row_a = adj.data() + static_cast<std::size_t>(best_a) * words;
    std::uint64_t* row_b = adj.data() + static_cast<std::size_t>(best_b) * words;
    // Gather N(a)\{b}, N(b)\{a} and N(a)∩N(b) before touching the rows.
    na.clear();
    nb.clear();
    nab.clear();
    for (int k = 0; k < n; ++k) {
      const bool in_a = row_bit(row_a, k);
      const bool in_b = row_bit(row_b, k);
      if (in_a && k != best_b) na.push_back(k);
      if (in_b && k != best_a) nb.push_back(k);
      if (in_a && in_b) nab.push_back(k);
    }
    // For every pair (k, l) of other super-vertices the merged vertex
    // contributes one common neighbour iff k, l ⊆ N(a) ∩ N(b), where a and b
    // contributed independently before, so
    //   Δcn(k,l) = [k,l ⊆ N(a)∩N(b)] − [k,l ⊆ N(a)] − [k,l ⊆ N(b)].
    adjust_pair_counts(na.data(), static_cast<int>(na.size()), -1, cn.data(),
                       n);
    adjust_pair_counts(nb.data(), static_cast<int>(nb.size()), -1, cn.data(),
                       n);
    adjust_pair_counts(nab.data(), static_cast<int>(nab.size()), +1, cn.data(),
                       n);

    // Merge b into a: a's members grow (b's appended, the reference order),
    // b dies, a's row becomes the neighbourhood intersection, the b column
    // disappears everywhere and the a column mirrors the new row.
    auto& ma = members[static_cast<std::size_t>(best_a)];
    auto& mb = members[static_cast<std::size_t>(best_b)];
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    alive[static_cast<std::size_t>(best_b)] = 0;
    for (std::size_t w = 0; w < words; ++w) {
      row_a[w] &= row_b[w];
      row_b[w] = 0;
    }
    for (int k = 0; k < n; ++k) {
      std::uint64_t* row_k = adj.data() + static_cast<std::size_t>(k) * words;
      row_bit_assign(row_k, best_b, false);
      if (k != best_a) row_bit_assign(row_k, best_a, row_bit(row_a, k));
    }
    // The merged vertex's own counts are recomputed outright: its
    // neighbourhood changed wholesale, so the pairwise deltas do not apply.
    for (int k = 0; k < n; ++k) {
      int c = 0;
      if (alive[static_cast<std::size_t>(k)] != 0 && k != best_a) {
        c = row_and_popcount(
            row_a, adj.data() + static_cast<std::size_t>(k) * words, words);
      }
      cn[static_cast<std::size_t>(best_a) * un + static_cast<std::size_t>(k)] =
          c;
      cn[static_cast<std::size_t>(k) * un + static_cast<std::size_t>(best_a)] =
          c;
    }
  }

  std::vector<std::vector<int>> cliques;
  for (int i = 0; i < n; ++i) {
    if (alive[static_cast<std::size_t>(i)]) {
      auto clique = members[static_cast<std::size_t>(i)];
      std::sort(clique.begin(), clique.end());
      cliques.push_back(std::move(clique));
    }
  }
  return cliques;
}

// ---------------------------------------------------------------------------
// Maximum-weight bipartite b-matching via min-cost flow
// ---------------------------------------------------------------------------

namespace {

struct FlowEdge {
  int to;
  int cap;
  double cost;
  std::size_t rev;  // index of the reverse edge in graph[to]
};

/// One Bellman-Ford sweep over every residual edge; returns whether any
/// distance label improved (the caller stops early when none did).
// hyde-hot
inline bool relax_all_edges(const std::vector<std::vector<FlowEdge>>& graph,
                            double* dist, int* prev_node,
                            std::size_t* prev_edge) {
  bool changed = false;
  const int n = static_cast<int>(graph.size());
  for (int u = 0; u < n; ++u) {
    if (!std::isfinite(dist[u])) continue;
    const std::vector<FlowEdge>& edges = graph[static_cast<std::size_t>(u)];
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].cap <= 0) continue;
      const double nd = dist[u] + edges[e].cost;
      const std::size_t to = static_cast<std::size_t>(edges[e].to);
      if (nd < dist[to] - 1e-12) {
        dist[to] = nd;
        prev_node[to] = u;
        prev_edge[to] = e;
        changed = true;
      }
    }
  }
  return changed;
}

/// Augments one unit of flow along the predecessor chain sink → source.
// hyde-hot
inline void push_unit_along_path(std::vector<std::vector<FlowEdge>>& graph,
                                 const int* prev_node,
                                 const std::size_t* prev_edge, int source,
                                 int sink) {
  for (int v = sink; v != source; v = prev_node[v]) {
    const int u = prev_node[v];
    FlowEdge& e =
        graph[static_cast<std::size_t>(u)][prev_edge[static_cast<std::size_t>(
            v)]];
    e.cap -= 1;
    graph[static_cast<std::size_t>(e.to)][e.rev].cap += 1;
  }
}

class FlowNetwork {
 public:
  explicit FlowNetwork(int num_nodes) : graph_(static_cast<std::size_t>(num_nodes)) {}

  void add_edge(int from, int to, int cap, double cost) {
    graph_[static_cast<std::size_t>(from)].push_back(
        {to, cap, cost, graph_[static_cast<std::size_t>(to)].size()});
    graph_[static_cast<std::size_t>(to)].push_back(
        {from, 0, -cost, graph_[static_cast<std::size_t>(from)].size() - 1});
  }

  /// Augments unit flows along cheapest paths while the path cost is
  /// negative; returns total (negated) profit.
  double run_negative_paths(int source, int sink) {
    const int n = static_cast<int>(graph_.size());
    double total = 0.0;
    // Scratch labels hoisted out of the augmentation loop and reset per path.
    std::vector<double> dist(static_cast<std::size_t>(n));
    std::vector<int> prev_node(static_cast<std::size_t>(n));
    std::vector<std::size_t> prev_edge(static_cast<std::size_t>(n));
    while (true) {
      // Bellman-Ford (costs can be negative; graphs here are tiny).
      std::fill(dist.begin(), dist.end(),
                std::numeric_limits<double>::infinity());
      std::fill(prev_node.begin(), prev_node.end(), -1);
      std::fill(prev_edge.begin(), prev_edge.end(), std::size_t{0});
      dist[static_cast<std::size_t>(source)] = 0.0;
      for (int iter = 0; iter < n; ++iter) {
        if (!relax_all_edges(graph_, dist.data(), prev_node.data(),
                             prev_edge.data())) {
          break;
        }
      }
      if (!std::isfinite(dist[static_cast<std::size_t>(sink)]) ||
          dist[static_cast<std::size_t>(sink)] >= -1e-12) {
        break;  // no remaining path with positive profit
      }
      push_unit_along_path(graph_, prev_node.data(), prev_edge.data(), source,
                           sink);
      total += dist[static_cast<std::size_t>(sink)];
    }
    return total;
  }

  const std::vector<FlowEdge>& edges_from(int node) const {
    return graph_[static_cast<std::size_t>(node)];
  }

 private:
  std::vector<std::vector<FlowEdge>> graph_;
};

}  // namespace

BMatchResult max_weight_b_matching(int num_left, int num_right,
                                   const std::vector<int>& right_capacity,
                                   const std::vector<BMatchEdge>& edges) {
  if (static_cast<int>(right_capacity.size()) != num_right) {
    throw std::invalid_argument("max_weight_b_matching: capacity size mismatch");
  }
  // Node layout: 0 = source, 1..num_left = left, then right, then sink.
  const int source = 0;
  const int left_base = 1;
  const int right_base = left_base + num_left;
  const int sink = right_base + num_right;
  FlowNetwork net(sink + 1);
  for (int i = 0; i < num_left; ++i) net.add_edge(source, left_base + i, 1, 0.0);
  for (int j = 0; j < num_right; ++j) {
    net.add_edge(right_base + j, sink, right_capacity[static_cast<std::size_t>(j)], 0.0);
  }
  for (const auto& e : edges) {
    if (e.left < 0 || e.left >= num_left || e.right < 0 || e.right >= num_right) {
      throw std::invalid_argument("max_weight_b_matching: edge out of range");
    }
    net.add_edge(left_base + e.left, right_base + e.right, 1, -e.weight);
  }
  const double neg_profit = net.run_negative_paths(source, sink);

  BMatchResult result;
  result.left_match.assign(static_cast<std::size_t>(num_left), -1);
  result.total_weight = -neg_profit;
  for (int i = 0; i < num_left; ++i) {
    for (const auto& e : net.edges_from(left_base + i)) {
      // A saturated forward edge to a right node indicates a match.
      if (e.to >= right_base && e.to < sink && e.cap == 0 && e.cost <= 0.0) {
        result.left_match[static_cast<std::size_t>(i)] = e.to - right_base;
        break;
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Edmonds' blossom maximum-cardinality matching
// ---------------------------------------------------------------------------

namespace {

class Blossom {
 public:
  Blossom(int n, const std::vector<std::pair<int, int>>& edges)
      : n_(n), adj_(static_cast<std::size_t>(n)) {
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      adj_[static_cast<std::size_t>(u)].push_back(v);
      adj_[static_cast<std::size_t>(v)].push_back(u);
    }
    match_.assign(static_cast<std::size_t>(n), -1);
  }

  std::vector<int> solve() {
    for (int v = 0; v < n_; ++v) {
      if (match_[static_cast<std::size_t>(v)] == -1) {
        const int u = find_augmenting_path(v);
        if (u != -1) augment(u);
      }
    }
    return match_;
  }

 private:
  int lca(int a, int b) {
    std::vector<char> used(static_cast<std::size_t>(n_), 0);
    while (true) {
      a = base_[static_cast<std::size_t>(a)];
      used[static_cast<std::size_t>(a)] = 1;
      if (match_[static_cast<std::size_t>(a)] == -1) break;
      a = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(a)])];
    }
    while (true) {
      b = base_[static_cast<std::size_t>(b)];
      if (used[static_cast<std::size_t>(b)]) return b;
      b = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(b)])];
    }
  }

  void mark_path(int v, int b, int child) {
    while (base_[static_cast<std::size_t>(v)] != b) {
      const int mv = match_[static_cast<std::size_t>(v)];
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(v)])] = 1;
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(mv)])] = 1;
      parent_[static_cast<std::size_t>(v)] = child;
      child = mv;
      v = parent_[static_cast<std::size_t>(mv)];
    }
  }

  int find_augmenting_path(int root) {
    used_.assign(static_cast<std::size_t>(n_), 0);
    parent_.assign(static_cast<std::size_t>(n_), -1);
    base_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) base_[static_cast<std::size_t>(i)] = i;

    used_[static_cast<std::size_t>(root)] = 1;
    std::queue<int> q;
    q.push(root);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (const int to : adj_[static_cast<std::size_t>(v)]) {
        if (base_[static_cast<std::size_t>(v)] == base_[static_cast<std::size_t>(to)] ||
            match_[static_cast<std::size_t>(v)] == to) {
          continue;
        }
        if (to == root ||
            (match_[static_cast<std::size_t>(to)] != -1 &&
             parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(to)])] != -1)) {
          // Found a blossom; contract it.
          const int cur_base = lca(v, to);
          blossom_.assign(static_cast<std::size_t>(n_), 0);
          mark_path(v, cur_base, to);
          mark_path(to, cur_base, v);
          for (int i = 0; i < n_; ++i) {
            if (blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(i)])]) {
              base_[static_cast<std::size_t>(i)] = cur_base;
              if (!used_[static_cast<std::size_t>(i)]) {
                used_[static_cast<std::size_t>(i)] = 1;
                q.push(i);
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == -1) {
          parent_[static_cast<std::size_t>(to)] = v;
          if (match_[static_cast<std::size_t>(to)] == -1) {
            return to;  // augmenting path found
          }
          used_[static_cast<std::size_t>(match_[static_cast<std::size_t>(to)])] = 1;
          q.push(match_[static_cast<std::size_t>(to)]);
        }
      }
    }
    return -1;
  }

  void augment(int v) {
    while (v != -1) {
      const int pv = parent_[static_cast<std::size_t>(v)];
      const int ppv = match_[static_cast<std::size_t>(pv)];
      match_[static_cast<std::size_t>(v)] = pv;
      match_[static_cast<std::size_t>(pv)] = v;
      v = ppv;
    }
  }

  int n_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> match_, parent_, base_;
  std::vector<char> used_, blossom_;
};

}  // namespace

std::vector<int> max_cardinality_matching(
    int n, const std::vector<std::pair<int, int>>& edges) {
  return Blossom(n, edges).solve();
}

}  // namespace hyde::graph
