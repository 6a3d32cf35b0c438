/// Tour of the BDD substrate: building functions, canonical equality,
/// quantification, satisfy counts, variable numbering and Graphviz export.
/// (The decomposition engine sits on exactly these primitives.)

#include <cstdio>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/transfer.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace hyde;
  bdd::Manager mgr(12);

  // Build a 6-pair "comparator hit" function the hard way and the easy way.
  bdd::Bdd f = mgr.zero();
  for (int i = 0; i < 6; ++i) {
    f = f | (mgr.var(i) & mgr.var(6 + i));
  }
  const tt::TruthTable table = tt::TruthTable::from_lambda(12, [](std::uint64_t m) {
    return ((m & 63) & (m >> 6)) != 0;
  });
  const bdd::Bdd g = mgr.from_truth_table(table);
  std::printf("canonical equality of two constructions: %s\n",
              f == g ? "equal" : "DIFFERENT");

  std::printf("nodes: %zu, onset minterms: %.0f of %d\n", mgr.node_count(f),
              mgr.sat_count(f, 12), 1 << 12);

  // Quantify away one side of the comparator.
  const bdd::Bdd any_b = mgr.exists(f, {6, 7, 8, 9, 10, 11});
  const bdd::Bdd a_nonzero = ~(mgr.nvar(0) & mgr.nvar(1) & mgr.nvar(2) &
                               mgr.nvar(3) & mgr.nvar(4) & mgr.nvar(5));
  std::printf("exists(b): reduces to 'a != 0': %s\n",
              any_b == a_nonzero ? "yes" : "no");

  // Graphviz dump of the same function over an interleaved variable
  // numbering (a_i next to b_i), where the fixed order keeps it small.
  std::vector<int> interleave(12);
  for (int i = 0; i < 6; ++i) {
    interleave[static_cast<std::size_t>(i)] = 2 * i;
    interleave[static_cast<std::size_t>(6 + i)] = 2 * i + 1;
  }
  bdd::Manager pretty(12);
  const bdd::Bdd moved = bdd::transfer(f, pretty, interleave);
  std::printf("interleaved numbering: %zu nodes -> %zu nodes\n",
              mgr.node_count(f), pretty.node_count(moved));
  const std::string dot = pretty.to_dot(moved, "comparator");
  std::printf("\n%s", dot.c_str());
  std::printf("(pipe through `dot -Tpng` to render)\n");
  return 0;
}
