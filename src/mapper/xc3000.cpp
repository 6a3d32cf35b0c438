#include "mapper/xc3000.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

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
/// width buckets minus each vertex's feed exclusions. The blossom search
/// itself is graph::AugmentingPathSearch; this class chooses the roots and
/// the order in which edges are offered to it.
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
  int find_augmenting_path(int root);

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
  std::vector<char> removed_;
  std::uint64_t scan_ = 0;
  std::vector<std::uint64_t> excluded_;
  graph::AugmentingPathSearch search_{0};
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

  removed_.assign(n, 0);
  excluded_.assign(n, 0);
  search_ = graph::AugmentingPathSearch(num_nodes());
}

std::uint64_t ClbMatcher::stamp_exclusions(int v) {
  const std::uint64_t scan = ++scan_;
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
  // Starting matching: exact over the sparse edges alone.
  graph::augment_from_every_root(search_, sparse_);
  const std::vector<int>& mate = search_.mates();
  slot_.assign(inputs_.size(), -1);
  for (const auto& bucket : by_width_) {
    for (const int v : bucket) {
      if (mate[at(v)] != -1) continue;
      auto& list = free_[at(width(v))];
      slot_[at(v)] = static_cast<int>(list.size());
      list.push_back(v);
    }
  }

  // A root with a free neighbour is matched to it at the first step of its
  // search, so the searches also do the work of a greedy pass. Every vertex
  // a failed search removes is matched, except that search's root.
  for (int root = 0; root < num_nodes(); ++root) {
    if (!pairable(root) || mate[at(root)] != -1) continue;
    take_free(root);
    const int end = find_augmenting_path(root);
    if (end >= 0) {
      take_free(end);
      search_.augment(end);
    } else {
      // Edmonds: the vertices of a failed search's Hungarian tree lie on no
      // later augmenting path, so they leave the graph for good.
      for (const int v : search_.tree()) removed_[at(v)] = 1;
      for (auto& bucket : by_width_) {
        bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                    [&](int v) { return removed_[at(v)]; }),
                     bucket.end());
      }
    }
  }

  int pairs = 0;
  for (int v = 0; v < num_nodes(); ++v) {
    if (mate[at(v)] > v) ++pairs;
  }
  return pairs;
}

// Edmonds' search may take the edges of even vertices in any order, so the
// cheap ones go first: every even vertex has its sparse edges and free dense
// neighbours offered before the next one has all its dense edges scanned.
// Returns the free vertex that ends an augmenting path, or -1.
int ClbMatcher::find_augmenting_path(int root) {
  search_.start(root);
  const std::vector<int>& queue = search_.queue();
  std::size_t cheap = 0;
  std::size_t full = 0;
  while (full < queue.size()) {
    if (cheap < queue.size()) {
      const int v = queue[cheap++];
      for (const int to : sparse_[at(v)]) {
        if (!removed_[at(to)] && search_.offer(v, to)) return to;
      }
      const int to = free_dense_neighbour(v);
      if (to >= 0 && search_.offer(v, to)) return to;
      continue;
    }
    const int v = queue[full++];
    const std::uint64_t scan = stamp_exclusions(v);
    for (int w = 0; w <= dense_limit(v); ++w) {
      for (const int to : by_width_[at(w)]) {
        if (excluded_[at(to)] != scan && search_.offer(v, to)) return to;
      }
    }
  }
  return -1;
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
