#include "mapper/xc3000.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "graph/matching.hpp"

namespace hyde::mapper {

namespace {

constexpr int kClbInputs = 5;   ///< distinct inputs of one CLB
constexpr int kHalfInputs = 4;  ///< inputs of one of its two LUT halves

/// A node's distinct fanins, sorted.
struct Inputs {
  std::array<net::NodeId, kClbInputs> ids{};
  int width = 0;

  bool has(net::NodeId id) const {
    return std::binary_search(ids.begin(), ids.begin() + width, id);
  }

  /// Inserts \p id in order unless present; the caller keeps width < 5.
  void insert(net::NodeId id) {
    if (has(id)) return;
    std::size_t pos = static_cast<std::size_t>(width++);
    for (; pos > 0 && ids[pos - 1] > id; --pos) ids[pos] = ids[pos - 1];
    ids[pos] = id;
  }
};

/// Maximum-cardinality matching on the CLB pairing graph of one network.
/// Vertices are the live logic nodes in topological order; only the ones of
/// width ≤ 4 have edges. Sparse edges (widths summing to more than 5) are
/// stored; dense edges (widths summing to at most 5) are implied by the
/// width buckets minus each vertex's feed exclusions.
class ClbMatcher {
 public:
  explicit ClbMatcher(const net::Network& network);

  int num_nodes() const { return static_cast<int>(inputs_.size()); }

  /// Returns the size of a maximum matching.
  int max_pairs();

 private:
  static std::size_t at(int v) { return static_cast<std::size_t>(v); }
  bool pairable(int v) const { return inputs_[at(v)].width <= kHalfInputs; }
  int width(int v) const { return inputs_[at(v)].width; }
  /// The widest fanin count a dense partner of \p v can have.
  int dense_limit(int v) const {
    return std::min(kHalfInputs, kClbInputs - width(v));
  }
  /// Stamps v's fanins and readers so a scan of the width buckets skips them.
  std::uint64_t stamp_exclusions(int v);
  /// A free dense neighbour of \p v, widest first, or -1.
  int free_dense_neighbour(int v);
  void take_free(int v);

  void enumerate_sparse_edges(std::size_t num_signals);
  void match_sparse_edges();

  int find_augmenting_path(int root);
  bool scan_edge(int root, int v, int to);
  void label_even(int v);
  void contract(int v, int to);
  int lca(int a, int b);
  void mark_path(int v, int b, int child, std::uint64_t mark);
  void augment(int v);

  std::vector<net::NodeId> ids_;
  std::vector<Inputs> inputs_;
  /// Pairable vertices that read, or are read by, each pairable vertex.
  std::vector<std::vector<int>> feeds_;
  std::vector<std::vector<int>> sparse_;
  /// Pairable vertices by width, ascending; removed vertices are dropped.
  std::array<std::vector<int>, kHalfInputs + 1> by_width_;
  /// Free pairable vertices by width, each at index slot_[v] of its list;
  /// a search's root leaves its list when the search starts.
  std::array<std::vector<int>, kHalfInputs + 1> free_;
  std::vector<int> slot_;
  std::vector<int> mate_;

  // Augmenting-path search state (Edmonds' blossom search).
  std::vector<int> parent_, base_, tree_, queue_;
  std::vector<char> even_, removed_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> excluded_, on_path_, in_blossom_;
};

ClbMatcher::ClbMatcher(const net::Network& network) {
  std::vector<int> local(static_cast<std::size_t>(network.num_nodes()), -1);
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic || node.dead) continue;
    if (node.fanins.size() > kClbInputs) {
      throw std::invalid_argument("pack_xc3000: node wider than 5 inputs: " +
                                  node.name);
    }
    Inputs in;
    for (net::NodeId fanin : node.fanins) in.insert(fanin);
    local[static_cast<std::size_t>(id)] = num_nodes();
    ids_.push_back(id);
    inputs_.push_back(in);
  }

  const std::size_t n = inputs_.size();
  feeds_.resize(n);
  for (int v = 0; v < num_nodes(); ++v) {
    if (!pairable(v)) continue;
    by_width_[at(width(v))].push_back(v);
    const Inputs& in = inputs_[at(v)];
    for (int i = 0; i < in.width; ++i) {
      const int u = local[static_cast<std::size_t>(in.ids[at(i)])];
      if (u < 0 || !pairable(u)) continue;
      feeds_[at(v)].push_back(u);
      feeds_[at(u)].push_back(v);
    }
  }
  enumerate_sparse_edges(local.size());

  mate_.assign(n, -1);
  parent_.assign(n, -1);
  base_.resize(n);
  for (int v = 0; v < num_nodes(); ++v) base_[at(v)] = v;
  even_.assign(n, 0);
  removed_.assign(n, 0);
  excluded_.assign(n, 0);
  on_path_.assign(n, 0);
  in_blossom_.assign(n, 0);
}

std::uint64_t ClbMatcher::stamp_exclusions(int v) {
  const std::uint64_t scan = ++epoch_;
  excluded_[at(v)] = scan;
  for (const int f : feeds_[at(v)]) excluded_[at(f)] = scan;
  return scan;
}

// Pairs whose widths sum to more than 5 fit one CLB only by sharing fanins,
// so they are found from a signal → readers index rather than by testing
// every pair.
void ClbMatcher::enumerate_sparse_edges(std::size_t num_signals) {
  sparse_.resize(inputs_.size());
  std::vector<std::vector<int>> readers(num_signals);
  for (int v = 0; v < num_nodes(); ++v) {
    if (!pairable(v) || width(v) < 2) continue;
    const Inputs& in = inputs_[at(v)];
    for (int i = 0; i < in.width; ++i) {
      readers[static_cast<std::size_t>(in.ids[at(i)])].push_back(v);
    }
  }
  std::vector<int> shared(inputs_.size(), 0);
  std::vector<int> candidates;
  for (int u = 0; u < num_nodes(); ++u) {
    if (!pairable(u) || width(u) < 2) continue;
    const Inputs& in = inputs_[at(u)];
    for (int i = 0; i < in.width; ++i) {
      const auto& list = readers[static_cast<std::size_t>(in.ids[at(i)])];
      for (auto it = std::upper_bound(list.begin(), list.end(), u);
           it != list.end(); ++it) {
        if (shared[at(*it)]++ == 0) candidates.push_back(*it);
      }
    }
    for (const int w : candidates) {
      const int sum = width(u) + width(w);
      if (sum > kClbInputs && sum - shared[at(w)] <= kClbInputs &&
          !in.has(ids_[at(w)]) && !inputs_[at(w)].has(ids_[at(u)])) {
        sparse_[at(u)].push_back(w);
        sparse_[at(w)].push_back(u);
      }
      shared[at(w)] = 0;
    }
    candidates.clear();
  }
}

// Starting matching: an exact blossom over the sparse edges alone, run on
// the vertices that have one.
void ClbMatcher::match_sparse_edges() {
  std::vector<int> compact(inputs_.size(), -1);
  std::vector<int> members;
  for (int v = 0; v < num_nodes(); ++v) {
    if (sparse_[at(v)].empty()) continue;
    compact[at(v)] = static_cast<int>(members.size());
    members.push_back(v);
  }
  std::vector<std::pair<int, int>> edges;
  for (const int u : members) {
    for (const int w : sparse_[at(u)]) {
      if (u < w) edges.emplace_back(compact[at(u)], compact[at(w)]);
    }
  }
  const std::vector<int> mate = graph::max_cardinality_matching(
      static_cast<int>(members.size()), edges);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (mate[i] >= 0) mate_[at(members[i])] = members[at(mate[i])];
  }
}

int ClbMatcher::free_dense_neighbour(int v) {
  const std::uint64_t scan = stamp_exclusions(v);
  for (int w = dense_limit(v); w >= 0; --w) {
    for (const int u : free_[at(w)]) {
      if (excluded_[at(u)] != scan) return u;
    }
  }
  return -1;
}

void ClbMatcher::take_free(int v) {
  auto& list = free_[at(width(v))];
  const int moved = list.back();
  list[at(slot_[at(v)])] = moved;
  slot_[at(moved)] = slot_[at(v)];
  list.pop_back();
}

int ClbMatcher::max_pairs() {
  match_sparse_edges();
  slot_.assign(inputs_.size(), -1);
  for (const auto& bucket : by_width_) {
    for (const int v : bucket) {
      if (mate_[at(v)] != -1) continue;
      auto& list = free_[at(width(v))];
      slot_[at(v)] = static_cast<int>(list.size());
      list.push_back(v);
    }
  }

  // A root with a free neighbour is matched to it at the first step of its
  // search, so the searches also do the work of a greedy pass. Every vertex
  // a failed search removes is matched, except that search's root.
  for (int root = 0; root < num_nodes(); ++root) {
    if (!pairable(root) || mate_[at(root)] != -1) continue;
    take_free(root);
    const int end = find_augmenting_path(root);
    if (end >= 0) {
      take_free(end);
      augment(end);
    } else {
      // Edmonds: the vertices of a failed search's Hungarian tree lie on no
      // later augmenting path, so they leave the graph for good.
      for (const int v : tree_) removed_[at(v)] = 1;
      for (auto& bucket : by_width_) {
        bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                    [&](int v) { return removed_[at(v)]; }),
                     bucket.end());
      }
    }
    for (const int v : tree_) {
      even_[at(v)] = 0;
      parent_[at(v)] = -1;
      base_[at(v)] = v;
    }
  }

  int pairs = 0;
  for (int v = 0; v < num_nodes(); ++v) {
    if (mate_[at(v)] > v) ++pairs;
  }
  return pairs;
}

// Alternating-tree search from a free root, as in the blossom search behind
// graph::max_cardinality_matching, with a vertex's dense neighbours read off
// the width buckets instead of an adjacency list. Edmonds' search may take
// the edges of even vertices in any order, so the cheap ones go first: every
// even vertex has its sparse edges and free dense neighbours looked at
// before the next one has all its dense edges scanned. Returns the free
// vertex that ends an augmenting path, or -1.
int ClbMatcher::find_augmenting_path(int root) {
  tree_.clear();
  queue_.clear();
  label_even(root);
  std::size_t cheap = 0;
  std::size_t full = 0;
  while (full < queue_.size()) {
    if (cheap < queue_.size()) {
      const int v = queue_[cheap++];
      for (const int to : sparse_[at(v)]) {
        if (!removed_[at(to)] && scan_edge(root, v, to)) return to;
      }
      const int to = free_dense_neighbour(v);
      if (to >= 0) {
        parent_[at(to)] = v;
        tree_.push_back(to);
        return to;
      }
      continue;
    }
    const int v = queue_[full++];
    const std::uint64_t scan = stamp_exclusions(v);
    for (int w = 0; w <= dense_limit(v); ++w) {
      for (const int to : by_width_[at(w)]) {
        if (excluded_[at(to)] != scan && scan_edge(root, v, to)) return to;
      }
    }
  }
  return -1;
}

bool ClbMatcher::scan_edge(int root, int v, int to) {
  if (base_[at(v)] == base_[at(to)] || mate_[at(v)] == to) return false;
  const int to_mate = mate_[at(to)];
  if (to == root || (to_mate != -1 && parent_[at(to_mate)] != -1)) {
    contract(v, to);
    return false;
  }
  if (parent_[at(to)] != -1) return false;
  parent_[at(to)] = v;
  tree_.push_back(to);
  if (to_mate == -1) return true;
  label_even(to_mate);
  return false;
}

void ClbMatcher::label_even(int v) {
  even_[at(v)] = 1;
  tree_.push_back(v);
  queue_.push_back(v);
}

void ClbMatcher::contract(int v, int to) {
  const int b = lca(v, to);
  const std::uint64_t mark = ++epoch_;
  mark_path(v, b, to, mark);
  mark_path(to, b, v, mark);
  // Every vertex whose base lies on the blossom is in the tree.
  for (const int x : tree_) {
    if (in_blossom_[at(base_[at(x)])] != mark) continue;
    base_[at(x)] = b;
    if (!even_[at(x)]) {
      even_[at(x)] = 1;
      queue_.push_back(x);
    }
  }
}

int ClbMatcher::lca(int a, int b) {
  const std::uint64_t mark = ++epoch_;
  while (true) {
    a = base_[at(a)];
    on_path_[at(a)] = mark;
    if (mate_[at(a)] == -1) break;
    a = parent_[at(mate_[at(a)])];
  }
  while (true) {
    b = base_[at(b)];
    if (on_path_[at(b)] == mark) return b;
    b = parent_[at(mate_[at(b)])];
  }
}

void ClbMatcher::mark_path(int v, int b, int child, std::uint64_t mark) {
  while (base_[at(v)] != b) {
    const int mv = mate_[at(v)];
    in_blossom_[at(base_[at(v)])] = mark;
    in_blossom_[at(base_[at(mv)])] = mark;
    parent_[at(v)] = child;
    child = mv;
    v = parent_[at(mv)];
  }
}

void ClbMatcher::augment(int v) {
  while (v != -1) {
    const int pv = parent_[at(v)];
    const int ppv = mate_[at(pv)];
    mate_[at(v)] = pv;
    mate_[at(pv)] = v;
    v = ppv;
  }
}

}  // namespace

ClbPacking pack_xc3000(const net::Network& network) {
  ClbMatcher matcher(network);
  ClbPacking packing;
  packing.paired = matcher.max_pairs();
  packing.singles = matcher.num_nodes() - 2 * packing.paired;
  packing.num_clbs = packing.singles + packing.paired;
  return packing;
}

}  // namespace hyde::mapper
