#include "decomp/chart.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "bdd/transfer.hpp"

namespace hyde::decomp {

namespace {

std::uint64_t pattern_key(const bdd::Bdd& on, const bdd::Bdd& dc) {
  return (static_cast<std::uint64_t>(on.id()) << 32) | dc.id();
}

void check_spec(const DecompSpec& spec) {
  if (spec.mgr == nullptr) {
    throw std::invalid_argument("DecompSpec: null manager");
  }
  if (static_cast<int>(spec.bound.size()) > kMaxBoundVars) {
    throw std::invalid_argument("DecompSpec: bound set too large to enumerate");
  }
}

/// The (on, dc) pair graph above the cut: f transferred into a manager whose
/// order puts bound[i] at level i, then both BDDs walked in lock step over
/// levels 0..p-1. Each distinct pair fully below the cut is one chart column;
/// each internal pair branches on its top level toward two child pairs.
///
/// Columns are registered in DFS low-first discovery order, which equals the
/// first-occurrence order of patterns in the recursive-cofactor enumeration
/// (depth i assigns bit i, low branch first) — the order downstream clique
/// partitioning depends on.
struct CutChart {
  struct PairNode {
    bdd::Bdd on, dc;  // handles pin node ids in the cut manager
    int level;        // branching level, < |bound|
    // Child edges: pair index when >= 0, ~column index when < 0.
    std::int64_t lo = 0, hi = 0;
  };

  bdd::Manager cut_mgr;
  std::vector<PairNode> internals;  // discovery order (DFS pre-order)
  std::vector<std::pair<bdd::Bdd, bdd::Bdd>> columns;  // discovery order
  std::int64_t root = 0;
  int cut_level = 0;
  std::vector<int> var_map;  // source var -> cut level (-1 = unused)

  explicit CutChart(const DecompSpec& spec)
      : cut_mgr(static_cast<int>(spec.bound.size() + spec.free.size())),
        cut_level(static_cast<int>(spec.bound.size())) {
    bdd::Manager& src = *spec.mgr;
    var_map.assign(static_cast<std::size_t>(src.num_vars()), -1);
    int next = 0;
    for (int v : spec.bound) var_map[static_cast<std::size_t>(v)] = next++;
    for (int v : spec.free) var_map[static_cast<std::size_t>(v)] = next++;
    // Support variables the spec's free list missed still go below the cut:
    // the recursive oracle tolerates an incomplete free list (it only
    // cofactors the bound set), so the cut path must too.
    for (int v : src.support(spec.f.on)) {
      if (var_map[static_cast<std::size_t>(v)] < 0) {
        var_map[static_cast<std::size_t>(v)] = next++;
      }
    }
    for (int v : src.support(spec.f.dc)) {
      if (var_map[static_cast<std::size_t>(v)] < 0) {
        var_map[static_cast<std::size_t>(v)] = next++;
      }
    }
    const bdd::Bdd on = bdd::transfer(spec.f.on, cut_mgr, var_map);
    const bdd::Bdd dc = bdd::transfer(spec.f.dc, cut_mgr, var_map);
    root = visit(on, dc);
  }

  bool below_cut(const bdd::Bdd& g) const {
    return g.is_constant() || g.top_var() >= cut_level;
  }

  std::int64_t visit(const bdd::Bdd& f_on, const bdd::Bdd& f_dc) {
    const std::uint64_t key = pattern_key(f_on, f_dc);
    if (below_cut(f_on) && below_cut(f_dc)) {
      auto [it, inserted] = column_memo_.emplace(key, columns.size());
      if (inserted) columns.emplace_back(f_on, f_dc);
      return ~static_cast<std::int64_t>(it->second);
    }
    if (auto it = pair_memo_.find(key); it != pair_memo_.end()) {
      return static_cast<std::int64_t>(it->second);
    }
    int level = INT32_MAX;
    if (!below_cut(f_on)) level = std::min(level, f_on.top_var());
    if (!below_cut(f_dc)) level = std::min(level, f_dc.top_var());
    const std::size_t idx = internals.size();
    internals.push_back(PairNode{f_on, f_dc, level});
    pair_memo_.emplace(key, idx);
    auto child = [&](const bdd::Bdd& g, bool hi) {
      if (g.is_constant() || g.top_var() != level) return g;
      return hi ? g.high() : g.low();
    };
    const std::int64_t lo = visit(child(f_on, false), child(f_dc, false));
    internals[idx].lo = lo;
    const std::int64_t hi = visit(child(f_on, true), child(f_dc, true));
    internals[idx].hi = hi;
    return static_cast<std::int64_t>(idx);
  }

  /// Per-column indicator over the cut manager's bound levels, by one
  /// top-down sweep. Pair levels strictly increase toward children (each
  /// edge consumes the parent's branching level), so sweeping pairs in level
  /// order guarantees every pair's cube set is final before it is pushed
  /// across its child edges — discovery order alone would not (a later pair
  /// may have a cross edge back to an earlier-discovered one).
  std::vector<bdd::Bdd> column_indicators() {
    std::vector<bdd::Bdd> ind(internals.size(), cut_mgr.zero());
    std::vector<bdd::Bdd> col_ind(columns.size(), cut_mgr.zero());
    auto add = [&](std::int64_t edge, const bdd::Bdd& g) {
      if (edge < 0) {
        col_ind[static_cast<std::size_t>(~edge)] =
            col_ind[static_cast<std::size_t>(~edge)] | g;
      } else {
        ind[static_cast<std::size_t>(edge)] =
            ind[static_cast<std::size_t>(edge)] | g;
      }
    };
    add(root, cut_mgr.one());
    std::vector<std::size_t> order(internals.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return internals[a].level < internals[b].level;
                     });
    for (std::size_t i : order) {
      const PairNode& p = internals[i];
      add(p.lo, ind[i] & cut_mgr.nvar(p.level));
      add(p.hi, ind[i] & cut_mgr.var(p.level));
    }
    return col_ind;
  }

  /// Materializes per-column minterm lists by replaying the full 2^p
  /// assignment walk over the pair graph (levels the graph skips branch both
  /// ways). Reproduces the recursive enumeration's per-column minterm order.
  void fill_minterms(std::vector<Column>* out) const {
    std::function<void(std::int64_t, int, std::uint64_t)> walk =
        [&](std::int64_t edge, int level, std::uint64_t m) {
          if (level == cut_level) {
            // Internal pairs all branch at levels < cut_level, so a fully
            // assigned path always ends on a column edge.
            (*out)[static_cast<std::size_t>(~edge)].minterms.push_back(m);
            return;
          }
          if (edge >= 0 &&
              internals[static_cast<std::size_t>(edge)].level == level) {
            const PairNode& p = internals[static_cast<std::size_t>(edge)];
            walk(p.lo, level + 1, m);
            walk(p.hi, level + 1, m | (std::uint64_t{1} << level));
          } else {
            walk(edge, level + 1, m);
            walk(edge, level + 1, m | (std::uint64_t{1} << level));
          }
        };
    walk(root, 0, 0);
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> pair_memo_;
  std::unordered_map<std::uint64_t, std::size_t> column_memo_;
};

}  // namespace

bdd::Bdd minterm_cube(bdd::Manager& mgr, const std::vector<int>& vars,
                      std::uint64_t minterm) {
  // AND literals highest variable first: each step then conjoins a literal
  // strictly above the cube's top variable, which the AND kernel resolves
  // with a single make_node instead of a recursive descent.
  std::vector<std::pair<int, bool>> literals;
  literals.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    literals.emplace_back(vars[i], ((minterm >> i) & 1) != 0);
  }
  std::sort(literals.begin(), literals.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  bdd::Bdd cube = mgr.one();
  for (const auto& [var, value] : literals) {
    cube = (value ? mgr.var(var) : mgr.nvar(var)) & cube;
  }
  return cube;
}

std::vector<Column> enumerate_columns(const DecompSpec& spec) {
  check_spec(spec);
  bdd::Manager& src = *spec.mgr;
  CutChart chart(spec);
  const std::vector<bdd::Bdd> cut_indicators = chart.column_indicators();

  // Transfer patterns and indicators back into the source manager; BDD
  // canonicity makes the results node-identical to the recursive reference.
  std::vector<int> inverse(
      static_cast<std::size_t>(chart.cut_mgr.num_vars()), -1);
  for (std::size_t v = 0; v < chart.var_map.size(); ++v) {
    if (chart.var_map[v] >= 0 &&
        chart.var_map[v] < static_cast<int>(inverse.size())) {
      inverse[static_cast<std::size_t>(chart.var_map[v])] = static_cast<int>(v);
    }
  }

  std::vector<Column> columns;
  columns.reserve(chart.columns.size());
  for (std::size_t c = 0; c < chart.columns.size(); ++c) {
    Column column;
    column.pattern.on = bdd::transfer(chart.columns[c].first, src, inverse);
    column.pattern.dc = bdd::transfer(chart.columns[c].second, src, inverse);
    column.indicator = bdd::transfer(cut_indicators[c], src, inverse);
    columns.push_back(std::move(column));
  }
  if (spec.include_minterms) chart.fill_minterms(&columns);
  return columns;
}

std::vector<ColumnSignature> column_signatures(
    const DecompSpec& spec, const std::vector<Column>& columns) {
  if (columns.empty()) return {};
  bdd::Manager& mgr = *spec.mgr;
  // Shared signature variable set: the sorted union of the pattern supports.
  // Free variables no pattern depends on only pad the row space without
  // affecting the compatibility predicate, so they are dropped.
  std::vector<char> used(static_cast<std::size_t>(mgr.num_vars()), 0);
  for (const Column& c : columns) {
    for (const int v : mgr.support(c.pattern.on)) {
      used[static_cast<std::size_t>(v)] = 1;
    }
    for (const int v : mgr.support(c.pattern.dc)) {
      used[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::vector<int> row_vars;
  for (int v = 0; v < mgr.num_vars(); ++v) {
    if (used[static_cast<std::size_t>(v)] != 0) row_vars.push_back(v);
  }
  const int nv = static_cast<int>(row_vars.size());
  if (nv > tt::TruthTable::kMaxVars || nv > 30 ||
      (std::int64_t{1} << nv) > kMaxSignatureRows) {
    return {};  // row space too large; caller falls back to BDD tests
  }
  const std::uint64_t rows = std::uint64_t{1} << nv;
  const std::size_t words = static_cast<std::size_t>((rows + 63) / 64);
  const unsigned tail_bits = static_cast<unsigned>(rows % 64);
  const std::uint64_t tail_mask =
      tail_bits == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail_bits) - 1;

  std::vector<ColumnSignature> sigs(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const tt::TruthTable on_tt =
        mgr.to_truth_table(columns[i].pattern.on, row_vars);
    const tt::TruthTable dc_tt =
        mgr.to_truth_table(columns[i].pattern.dc, row_vars);
    sigs[i].on = on_tt.words();
    const std::vector<std::uint64_t>& dc_words = dc_tt.words();
    sigs[i].care.resize(words);
    for (std::size_t w = 0; w < words; ++w) {
      sigs[i].care[w] = ~dc_words[w];
    }
    // TruthTable zeroes its own tail bits; complementing set them, so mask
    // the care tail back to zero to keep whole-word tests sound.
    sigs[i].care[words - 1] &= tail_mask;
  }
  return sigs;
}

int count_columns_via_cut(const DecompSpec& spec) {
  if (spec.mgr == nullptr) {
    throw std::invalid_argument("DecompSpec: null manager");
  }
  return static_cast<int>(CutChart(spec).columns.size());
}

int count_columns(const DecompSpec& spec) {
  check_spec(spec);
  return static_cast<int>(CutChart(spec).columns.size());
}

}  // namespace hyde::decomp
