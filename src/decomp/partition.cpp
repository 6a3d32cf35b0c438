#include "decomp/partition.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hyde::decomp {

int SymbolTable::id_of(const bdd::Bdd& on, const bdd::Bdd& dc) {
  const std::uint64_t key = (static_cast<std::uint64_t>(on.id()) << 32) | dc.id();
  auto [it, inserted] = ids_.emplace(key, static_cast<int>(holders_.size()));
  if (inserted) holders_.emplace_back(on, dc);
  return it->second;
}

int Partition::multiplicity() const {
  std::vector<int> sorted = symbols;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return static_cast<int>(sorted.size());
}

std::vector<std::vector<int>> Partition::same_content_position_sets() const {
  std::map<int, std::vector<int>> by_symbol;
  for (int p = 0; p < num_positions(); ++p) {
    by_symbol[symbols[static_cast<std::size_t>(p)]].push_back(p);
  }
  std::vector<std::vector<int>> sets;
  for (auto& [symbol, positions] : by_symbol) {
    if (positions.size() >= 2) sets.push_back(std::move(positions));
  }
  // Deterministic: order by first position.
  std::sort(sets.begin(), sets.end());
  return sets;
}

Partition Partition::canonical() const {
  Partition result;
  result.symbols.reserve(symbols.size());
  std::unordered_map<int, int> renumber;
  for (int s : symbols) {
    const auto it = renumber.emplace(s, static_cast<int>(renumber.size())).first;
    result.symbols.push_back(it->second);
  }
  return result;
}

std::string Partition::to_string() const {
  std::ostringstream os;
  os << '<';
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (i != 0) os << ',';
    os << symbols[i];
  }
  os << '>';
  return os.str();
}

Partition make_partition(bdd::Manager& mgr, const IsfBdd& f,
                         const std::vector<int>& position_vars,
                         SymbolTable& symbols) {
  if (position_vars.size() > 20) {
    throw std::invalid_argument("make_partition: too many position variables");
  }
  // Enumerate every (position, residual pattern) pair first, then intern the
  // patterns in that low-cofactor-first visit order.
  std::vector<std::pair<std::uint64_t, IsfBdd>> patterns;
  patterns.reserve(std::size_t{1} << position_vars.size());
  std::function<void(std::size_t, const bdd::Bdd&, const bdd::Bdd&, std::uint64_t)>
      rec = [&](std::size_t depth, const bdd::Bdd& on, const bdd::Bdd& dc,
                std::uint64_t position) {
        if (depth == position_vars.size()) {
          patterns.emplace_back(position, IsfBdd{on, dc});
          return;
        }
        const int var = position_vars[depth];
        rec(depth + 1, mgr.cofactor(on, var, false), mgr.cofactor(dc, var, false),
            position);
        rec(depth + 1, mgr.cofactor(on, var, true), mgr.cofactor(dc, var, true),
            position | (std::uint64_t{1} << depth));
      };
  rec(0, f.on, f.dc, 0);

  Partition result;
  result.symbols.resize(std::size_t{1} << position_vars.size());
  for (const auto& [position, pattern] : patterns) {
    result.symbols[position] = symbols.id_of(pattern.on, pattern.dc);
  }
  return result;
}

Partition conjunction(const std::vector<Partition>& parts) {
  if (parts.empty()) return {};
  const std::size_t positions = parts.front().symbols.size();
  for (const Partition& p : parts) {
    if (p.symbols.size() != positions) {
      throw std::invalid_argument("conjunction: position count mismatch");
    }
  }
  Partition result;
  result.symbols.reserve(positions);
  std::map<std::vector<int>, int> tuple_ids;
  for (std::size_t p = 0; p < positions; ++p) {
    std::vector<int> tuple;
    tuple.reserve(parts.size());
    for (const Partition& part : parts) tuple.push_back(part.symbols[p]);
    const auto it =
        tuple_ids.emplace(std::move(tuple), static_cast<int>(tuple_ids.size()))
            .first;
    result.symbols.push_back(it->second);
  }
  return result;
}

Partition disjunction(const std::vector<Partition>& parts) {
  Partition result;
  for (const Partition& p : parts) {
    result.symbols.insert(result.symbols.end(), p.symbols.begin(),
                          p.symbols.end());
  }
  return result;
}

bool contained_in(const Partition& a, const Partition& b) {
  if (a.symbols.size() != b.symbols.size()) {
    throw std::invalid_argument("contained_in: position count mismatch");
  }
  return b.multiplicity() == conjunction({a, b}).multiplicity();
}

}  // namespace hyde::decomp
