#include "decomp/search.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace hyde::decomp {

namespace {

// hyde-hot
std::size_t combine_hash(std::size_t seed, std::size_t value) {
  // Boost-style mix; the constant is the 64-bit golden ratio.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Strict-weak order of the greedy selection: smaller column count first,
/// then the smaller variable index. Matches the legacy select_bound_set
/// update rule.
// hyde-hot
bool better_candidate(int cost, int var, int best_cost, int best_var) {
  if (best_var < 0) return true;
  if (cost != best_cost) return cost < best_cost;
  return var < best_var;
}

}  // namespace

/// Memoized exact column count for one (ISF, bound set). Entries hold the
/// ISF root handles: the external references pin the nodes, so the (on id,
/// dc id) pair in the key denotes this function — and no other — for as long
/// as the entry lives.
struct BoundSetSearch::Memo {
  struct Key {
    std::uint32_t on_id = 0;
    std::uint32_t dc_id = 0;
    std::vector<int> bound;  ///< sorted (counts are order-invariant)

    bool operator==(const Key& rhs) const {
      return on_id == rhs.on_id && dc_id == rhs.dc_id && bound == rhs.bound;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h = combine_hash(key.on_id, key.dc_id);
      for (int v : key.bound) {
        h = combine_hash(h, static_cast<std::size_t>(v));
      }
      return h;
    }
  };

  struct Entry {
    bdd::Bdd on;
    bdd::Bdd dc;
    int count = 0;
  };

  std::unordered_map<Key, Entry, KeyHash> table;
};

BoundSetSearch::BoundSetSearch(bdd::Manager& mgr)
    : mgr_(mgr), memo_(new Memo) {}

BoundSetSearch::~BoundSetSearch() = default;

std::size_t BoundSetSearch::memo_size() const { return memo_->table.size(); }

int BoundSetSearch::grow_step(const IsfBdd& f, const std::vector<int>& support,
                              const std::vector<int>& bound,
                              const std::vector<int>& pool) {
  // Free set shared by every candidate this step: support minus the bound
  // prefix, via a membership mask instead of a per-variable std::find scan.
  std::vector<char> in_bound(static_cast<std::size_t>(mgr_.num_vars()), 0);
  for (int v : bound) in_bound[static_cast<std::size_t>(v)] = 1;
  std::vector<int> free_base;
  free_base.reserve(support.size());
  for (int v : support) {
    if (!in_bound[static_cast<std::size_t>(v)]) free_base.push_back(v);
  }

  if (memo_->table.size() + pool.size() > kMemoCapacity) {
    memo_->table.clear();
    ++stats_.memo_clears;
  }

  int best_var = -1;
  int best_cost = -1;
  for (int var : pool) {
    Memo::Key key{f.on.id(), f.dc.id(), bound};
    key.bound.push_back(var);
    std::sort(key.bound.begin(), key.bound.end());
    int cost = 0;
    if (const auto it = memo_->table.find(key); it != memo_->table.end()) {
      cost = it->second.count;
      ++stats_.memo_hits;
    } else {
      DecompSpec spec;
      spec.mgr = &mgr_;
      spec.f = f;
      spec.bound = key.bound;
      spec.free.reserve(free_base.size());
      for (int v : free_base) {
        if (v != var) spec.free.push_back(v);
      }
      cost = count_columns(spec);
      ++stats_.candidates_evaluated;
      memo_->table.emplace(std::move(key), Memo::Entry{f.on, f.dc, cost});
    }
    if (better_candidate(cost, var, best_cost, best_var)) {
      best_var = var;
      best_cost = cost;
    }
  }
  return best_var;
}

VarPartitionResult BoundSetSearch::select(const IsfBdd& f,
                                          const std::vector<int>& support,
                                          const VarPartitionOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ++stats_.selects;

  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    stats_.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;  // no valid partition
  }
  if (options.bound_size > kMaxBoundVars) {
    throw std::invalid_argument("select_bound_set: bound size too large");
  }

  std::vector<int> preferred, avoided;
  for (int v : support) {
    if (std::find(options.avoid.begin(), options.avoid.end(), v) !=
        options.avoid.end()) {
      avoided.push_back(v);
    } else {
      preferred.push_back(v);
    }
  }

  // Greedy growth: add the candidate minimizing the column count; avoided
  // variables are considered only once the preferred pool is exhausted.
  std::vector<int> bound;
  while (static_cast<int>(bound.size()) < options.bound_size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    const int best_var = grow_step(f, support, bound, pool);
    bound.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }
  std::sort(bound.begin(), bound.end());

  DecompSpec spec;
  spec.mgr = &mgr_;
  spec.f = f;
  spec.bound = bound;
  std::vector<char> in_bound(static_cast<std::size_t>(mgr_.num_vars()), 0);
  for (int v : bound) in_bound[static_cast<std::size_t>(v)] = 1;
  for (int v : support) {
    if (!in_bound[static_cast<std::size_t>(v)]) spec.free.push_back(v);
  }
  result.bound = spec.bound;
  result.free = spec.free;
  result.num_classes = count_compatible_classes(spec, options.dc_policy);
  result.success = true;
  if (options.require_nontrivial &&
      result.code_bits() >= static_cast<int>(result.bound.size())) {
    result.success = false;
  }

  stats_.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace hyde::decomp
