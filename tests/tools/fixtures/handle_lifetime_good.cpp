// Fixture: handle-keyed memo tables, hyde-pinned ids and transfer()
// crossings all satisfy the lifetime contract.
#include "bdd/bdd.hpp"

long MemoTable::lookup(const bdd::Bdd& f) {
  auto it = memo_.find(f);
  return it == memo_.end() ? -1 : it->second;
}

long pinned_use(bdd::Manager& mgr, const bdd::Bdd& f, const bdd::Bdd& g) {
  const long raw = f.id();
  const bdd::Bdd h = mgr.bdd_and(f, g);
  return raw + h.id();  // hyde-pinned: f pins the node across the GC
}

bdd::Bdd across(bdd::Manager& a, bdd::Manager& b) {
  bdd::Bdd fa = a.var(0);
  bdd::Bdd fb = b.transfer(fa);
  return b.bdd_not(fb);
}
