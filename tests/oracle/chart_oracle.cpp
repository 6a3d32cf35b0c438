#include "oracle/chart_oracle.hpp"

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

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

}  // namespace

std::vector<Column> enumerate_columns_recursive(const DecompSpec& spec) {
  check_spec(spec);
  bdd::Manager& mgr = *spec.mgr;
  std::vector<Column> columns;
  std::unordered_map<std::uint64_t, std::size_t> index_of;

  // Walk all 2^|bound| assignments by successive cofactoring; patterns that
  // coincide as (on, dc) BDD pairs are merged into one column.
  std::function<void(std::size_t, const bdd::Bdd&, const bdd::Bdd&, std::uint64_t)>
      rec = [&](std::size_t depth, const bdd::Bdd& on, const bdd::Bdd& dc,
                std::uint64_t minterm) {
        if (depth == spec.bound.size()) {
          const std::uint64_t key = pattern_key(on, dc);
          auto [it, inserted] = index_of.emplace(key, columns.size());
          if (inserted) {
            columns.push_back(Column{IsfBdd{on, dc}, mgr.zero(), {}});
          }
          columns[it->second].minterms.push_back(minterm);
          return;
        }
        const int var = spec.bound[depth];
        rec(depth + 1, mgr.cofactor(on, var, false), mgr.cofactor(dc, var, false),
            minterm);
        rec(depth + 1, mgr.cofactor(on, var, true), mgr.cofactor(dc, var, true),
            minterm | (std::uint64_t{1} << depth));
      };
  rec(0, spec.f.on, spec.f.dc, 0);

  for (Column& column : columns) {
    bdd::Bdd indicator = mgr.zero();
    for (std::uint64_t m : column.minterms) {
      indicator = indicator | minterm_cube(mgr, spec.bound, m);
    }
    column.indicator = std::move(indicator);
  }
  return columns;
}

int count_columns_recursive(const DecompSpec& spec) {
  check_spec(spec);
  bdd::Manager& mgr = *spec.mgr;
  // Hold handles so GC cannot recycle pattern ids mid-enumeration.
  std::unordered_map<std::uint64_t, std::pair<bdd::Bdd, bdd::Bdd>> seen;
  std::function<void(std::size_t, const bdd::Bdd&, const bdd::Bdd&)> rec =
      [&](std::size_t depth, const bdd::Bdd& on, const bdd::Bdd& dc) {
        if (depth == spec.bound.size()) {
          seen.emplace(pattern_key(on, dc), std::make_pair(on, dc));
          return;
        }
        const int var = spec.bound[depth];
        rec(depth + 1, mgr.cofactor(on, var, false),
            mgr.cofactor(dc, var, false));
        rec(depth + 1, mgr.cofactor(on, var, true), mgr.cofactor(dc, var, true));
      };
  rec(0, spec.f.on, spec.f.dc);
  return static_cast<int>(seen.size());
}

}  // namespace hyde::decomp
