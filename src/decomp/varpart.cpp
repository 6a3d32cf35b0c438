#include "decomp/varpart.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace hyde::decomp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One greedy step: the pool variable minimizing the column count of
/// bound ∪ {v}, ties to the smallest variable.
int grow_step(bdd::Manager& mgr, const IsfBdd& f,
              const std::vector<int>& support, const std::vector<int>& bound,
              const std::vector<int>& pool, SearchStats* stats) {
  // Free set shared by every candidate this step: support minus the bound
  // prefix, via a membership mask instead of a per-variable std::find scan.
  std::vector<char> in_bound(static_cast<std::size_t>(mgr.num_vars()), 0);
  for (int v : bound) in_bound[static_cast<std::size_t>(v)] = 1;
  std::vector<int> free_base;
  free_base.reserve(support.size());
  for (int v : support) {
    if (!in_bound[static_cast<std::size_t>(v)]) free_base.push_back(v);
  }

  int best_var = -1;
  int best_cost = -1;
  for (int var : pool) {
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    spec.bound = bound;
    spec.bound.push_back(var);
    std::sort(spec.bound.begin(), spec.bound.end());
    spec.free.reserve(free_base.size());
    for (int v : free_base) {
      if (v != var) spec.free.push_back(v);
    }
    const int cost = count_columns(spec);
    if (stats != nullptr) ++stats->candidates_evaluated;
    if (best_var < 0 || cost < best_cost ||
        (cost == best_cost && var < best_var)) {
      best_var = var;
      best_cost = cost;
    }
  }
  return best_var;
}

}  // namespace

std::vector<int> grow_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                const std::vector<int>& support, int size,
                                const std::vector<int>& avoid,
                                SearchStats* stats) {
  if (size > kMaxBoundVars) {
    throw std::invalid_argument("grow_bound_set: bound size too large");
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<int> preferred, avoided;
  for (int v : support) {
    (std::find(avoid.begin(), avoid.end(), v) != avoid.end() ? avoided
                                                             : preferred)
        .push_back(v);
  }
  // Avoided variables are considered only once the preferred pool is
  // exhausted.
  std::vector<int> picks;
  while (static_cast<int>(picks.size()) < size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    const int best_var = grow_step(mgr, f, support, picks, pool, stats);
    picks.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }
  if (stats != nullptr) {
    ++stats->selects;
    stats->seconds += seconds_since(start);
  }
  return picks;
}

VarPartitionResult select_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                    const std::vector<int>& support,
                                    const VarPartitionOptions& options,
                                    SearchStats* stats) {
  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    return result;  // no valid partition
  }
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = f;
  spec.bound =
      grow_bound_set(mgr, f, support, options.bound_size, options.avoid, stats);
  const auto start = std::chrono::steady_clock::now();
  std::sort(spec.bound.begin(), spec.bound.end());
  for (int v : support) {
    if (!std::binary_search(spec.bound.begin(), spec.bound.end(), v)) {
      spec.free.push_back(v);
    }
  }
  result.bound = spec.bound;
  result.free = spec.free;
  result.num_classes = count_compatible_classes(spec, options.dc_policy);
  result.success = !options.require_nontrivial ||
                   result.code_bits() < static_cast<int>(result.bound.size());
  if (stats != nullptr) stats->seconds += seconds_since(start);
  return result;
}

}  // namespace hyde::decomp
