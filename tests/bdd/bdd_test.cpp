#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace hyde::bdd {
namespace {

using hyde::tt::TruthTable;

TEST(Bdd, Constants) {
  Manager mgr(4);
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_TRUE(mgr.one().is_one());
  EXPECT_NE(mgr.zero(), mgr.one());
  EXPECT_EQ(mgr.constant(true), mgr.one());
  EXPECT_TRUE(mgr.one().is_constant());
}

TEST(Bdd, VariablesAreCanonical) {
  Manager mgr(4);
  EXPECT_EQ(mgr.var(1), mgr.var(1));
  EXPECT_NE(mgr.var(1), mgr.var(2));
  EXPECT_EQ(mgr.nvar(1), ~mgr.var(1));
  EXPECT_THROW(mgr.var(4), std::invalid_argument);
}

TEST(Bdd, BasicAlgebra) {
  Manager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a | (b & c), (a | b) & (a | c));
  EXPECT_EQ(~(a & b), ~a | ~b);
  EXPECT_EQ(a ^ a, mgr.zero());
  EXPECT_EQ(a ^ ~a, mgr.one());
  EXPECT_EQ(a & mgr.one(), a);
  EXPECT_EQ(a & mgr.zero(), mgr.zero());
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
}

TEST(Bdd, IteIdentities) {
  Manager mgr(4);
  const Bdd f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  EXPECT_EQ(mgr.ite(mgr.one(), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.zero(), g, h), h);
  EXPECT_EQ(mgr.ite(f, mgr.one(), mgr.zero()), f);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  // ite(f,g,h) = f&g | !f&h
  EXPECT_EQ(mgr.ite(f, g, h), (f & g) | (~f & h));
}

TEST(Bdd, CanonicityViaTruthTables) {
  // Every pair of structurally equal BDDs must have the same table and every
  // pair of distinct functions must differ structurally.
  Manager mgr(3);
  std::vector<Bdd> all;
  const std::vector<int> vars{0, 1, 2};
  for (unsigned bits = 0; bits < 256; ++bits) {
    TruthTable t(3);
    for (std::uint64_t m = 0; m < 8; ++m) {
      if ((bits >> m) & 1) t.set_bit(m, true);
    }
    const Bdd f = mgr.from_truth_table(t);
    EXPECT_EQ(mgr.to_truth_table(f, vars), t) << "bits=" << bits;
    all.push_back(f);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]);
    }
  }
}

TEST(Bdd, CofactorMatchesTruthTable) {
  Manager mgr(5);
  std::mt19937_64 rng(11);
  const std::vector<int> vars{0, 1, 2, 3, 4};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable t = TruthTable::from_lambda(
        5, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const Bdd f = mgr.from_truth_table(t);
    for (int v = 0; v < 5; ++v) {
      EXPECT_EQ(mgr.to_truth_table(mgr.cofactor(f, v, true), vars),
                t.cofactor(v, true));
      EXPECT_EQ(mgr.to_truth_table(mgr.cofactor(f, v, false), vars),
                t.cofactor(v, false));
    }
  }
}

TEST(Bdd, QuantifiersMatchTruthTable) {
  Manager mgr(6);
  std::mt19937_64 rng(13);
  const std::vector<int> vars{0, 1, 2, 3, 4, 5};
  const TruthTable t = TruthTable::from_lambda(
      6, [&rng](std::uint64_t) { return (rng() % 4) == 0; });
  const Bdd f = mgr.from_truth_table(t);
  EXPECT_EQ(mgr.to_truth_table(mgr.exists(f, {1, 3}), vars),
            t.exists(1).exists(3));
  EXPECT_EQ(mgr.to_truth_table(mgr.forall(f, {0, 5}), vars),
            t.forall(0).forall(5));
}

TEST(Bdd, QuantifiersRejectOutOfRangeVariables) {
  // Like var/compose: a quantified variable the manager does not have is
  // rejected before any node is made, so no node on it can reach the table.
  Manager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(1);
  const std::size_t nodes = mgr.stats().live_nodes;
  EXPECT_THROW(mgr.exists(f, {9}), std::invalid_argument);
  EXPECT_THROW(mgr.forall(f, {1, 4}), std::invalid_argument);
  EXPECT_THROW(mgr.exists(f, {-1, 0}), std::invalid_argument);
  EXPECT_THROW(mgr.forall(f, {-3}), std::invalid_argument);
  EXPECT_EQ(mgr.stats().live_nodes, nodes);
  EXPECT_TRUE(mgr.audit_invariants().ok());
  EXPECT_EQ(mgr.exists(f, {1, 3}), mgr.var(0));
  EXPECT_EQ(mgr.forall(f, {}), f);
}

TEST(Bdd, ComposeSubstitutes) {
  Manager mgr(5);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f = a ^ b;
  // Substitute b := a&c  =>  a ^ (a&c)
  EXPECT_EQ(mgr.compose(f, 1, a & c), a ^ (a & c));
}

TEST(Bdd, VectorComposeSwapsSimultaneously) {
  Manager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = a & ~b;
  std::unordered_map<int, Bdd, std::hash<int>> map;
  map.emplace(0, b);
  map.emplace(1, a);
  EXPECT_EQ(mgr.vector_compose(f, map), b & ~a);
}

TEST(Bdd, PermuteRenames) {
  Manager mgr(6);
  const Bdd f = mgr.var(0) | (mgr.var(1) & mgr.var(2));
  const Bdd g = mgr.permute(f, {3, 4, 5});
  EXPECT_EQ(g, mgr.var(3) | (mgr.var(4) & mgr.var(5)));
}

TEST(Bdd, PermuteLongerThanManagerGrowsVariables) {
  // A permutation whose domain exceeds num_vars must grow the manager, not
  // write past the end of the internal substitution map (regression: the
  // map was sized num_vars while indexed by perm position).
  Manager mgr(2);
  const Bdd f = mgr.var(0) & mgr.var(1);
  const Bdd g = mgr.permute(f, {1, 0, 0});
  EXPECT_EQ(g, mgr.var(0) & mgr.var(1));
  EXPECT_GE(mgr.num_vars(), 3);
}

TEST(Bdd, SupportComputation) {
  Manager mgr(8);
  const Bdd f = (mgr.var(1) & mgr.var(5)) ^ mgr.var(7);
  EXPECT_EQ(mgr.support(f), (std::vector<int>{1, 5, 7}));
  EXPECT_TRUE(mgr.support(mgr.one()).empty());
}

/// Support by brute force: f depends on v iff its two cofactors differ.
std::vector<int> support_by_cofactors(Manager& mgr, const Bdd& f) {
  std::vector<int> vars;
  for (int v = 0; v < mgr.num_vars(); ++v) {
    if (mgr.cofactor(f, v, false) != mgr.cofactor(f, v, true)) {
      vars.push_back(v);
    }
  }
  return vars;
}

TEST(Bdd, SupportOfSmallFunctionsInALargeManager) {
  // support() reuses its visit marks across calls; node ids freed by GC must
  // not leak stale marks.
  constexpr int kVars = 20;
  Manager mgr(kVars);
  std::mt19937_64 rng(17);
  const auto build_large = [&] {
    Bdd big = mgr.zero();
    for (int i = 0; i < kVars; ++i) {
      big = big ^ (mgr.var(i) & mgr.var((i * 7 + 3) % kVars));
    }
    return big;
  };
  const auto check_small_functions = [&](int round) {
    for (int trial = 0; trial < 40; ++trial) {
      const int a = static_cast<int>(rng() % kVars);
      const int b = static_cast<int>(rng() % kVars);
      const int c = static_cast<int>(rng() % kVars);
      const Bdd f = (mgr.var(a) & ~mgr.var(b)) ^ mgr.var(c);
      EXPECT_EQ(mgr.support(f), support_by_cofactors(mgr, f))
          << "round=" << round << " a=" << a << " b=" << b << " c=" << c;
    }
  };

  Bdd big = build_large();
  ASSERT_GT(mgr.store_size(), 1000u);
  check_small_functions(0);
  EXPECT_EQ(mgr.support(big), support_by_cofactors(mgr, big));

  big = mgr.zero();
  mgr.collect_garbage();
  check_small_functions(1);

  big = build_large();
  check_small_functions(2);
  EXPECT_EQ(mgr.support(big), support_by_cofactors(mgr, big));
}

TEST(Bdd, SatCount) {
  Manager mgr(10);
  const Bdd f = mgr.var(0) & mgr.var(1);  // quarter of the space
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 10), 256.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.one(), 10), 1024.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.zero(), 10), 0.0);
  const Bdd parity = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  EXPECT_DOUBLE_EQ(mgr.sat_count(parity, 4), 8.0);
}

TEST(Bdd, DisjointWithoutConjunction) {
  Manager mgr(6);
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = ~mgr.var(0) & mgr.var(2);
  EXPECT_TRUE(mgr.disjoint(a, b));
  EXPECT_FALSE(mgr.disjoint(a, mgr.var(1)));
  EXPECT_TRUE(mgr.disjoint(a, mgr.zero()));
  EXPECT_TRUE(mgr.implies(a, mgr.var(0)));
  EXPECT_FALSE(mgr.implies(mgr.var(0), a));
}

TEST(Bdd, PickOneMinterm) {
  Manager mgr(6);
  const Bdd f = mgr.var(2) & ~mgr.var(4);
  std::vector<std::pair<int, bool>> assignment;
  ASSERT_TRUE(mgr.pick_one_minterm(f, &assignment));
  // The picked partial assignment must satisfy f.
  Bdd cof = f;
  for (auto [v, val] : assignment) cof = mgr.cofactor(cof, v, val);
  EXPECT_TRUE(cof.is_one());
  EXPECT_FALSE(mgr.pick_one_minterm(mgr.zero(), &assignment));
}

TEST(Bdd, NodeCountOfChain) {
  Manager mgr(8);
  Bdd f = mgr.one();
  for (int i = 0; i < 8; ++i) f = f & mgr.var(i);
  EXPECT_EQ(mgr.node_count(f), 8u);  // conjunction chain: one node per var
  EXPECT_EQ(mgr.node_count(mgr.one()), 0u);
}

TEST(Bdd, FromTruthTableWithVarMap) {
  Manager mgr(10);
  const TruthTable t =
      TruthTable::var(2, 0) ^ TruthTable::var(2, 1);  // x0 xor x1
  const Bdd f = mgr.from_truth_table(t, {7, 3});
  EXPECT_EQ(f, mgr.var(7) ^ mgr.var(3));
}

TEST(Bdd, ToTruthTableRejectsOutsideSupport) {
  Manager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(3);
  EXPECT_THROW(mgr.to_truth_table(f, {0, 1}), std::invalid_argument);
  EXPECT_EQ(mgr.to_truth_table(f, {0, 3}),
            TruthTable::var(2, 0) & TruthTable::var(2, 1));
}

TEST(Bdd, EvalWalksCorrectly) {
  Manager mgr(4);
  const Bdd f = (mgr.var(0) | mgr.var(1)) & ~mgr.var(3);
  EXPECT_TRUE(mgr.eval(f, {true, false, false, false}));
  EXPECT_FALSE(mgr.eval(f, {true, false, false, true}));
  EXPECT_FALSE(mgr.eval(f, {false, false, true, false}));
}

TEST(Bdd, GarbageCollectionPreservesLiveNodes) {
  Manager mgr(16);
  Bdd keep = mgr.one();
  for (int i = 0; i < 16; ++i) keep = keep & mgr.var(i);
  {
    // Build and drop a lot of garbage.
    for (int round = 0; round < 50; ++round) {
      Bdd junk = mgr.zero();
      for (int i = 0; i < 16; ++i) {
        junk = junk ^ (mgr.var(i) & mgr.var((i + 3) % 16));
      }
    }
  }
  const std::size_t before = mgr.live_node_count();
  mgr.collect_garbage();
  EXPECT_LT(mgr.live_node_count(), before);
  // The kept function still evaluates correctly after GC.
  std::vector<bool> all_true(16, true);
  EXPECT_TRUE(mgr.eval(keep, all_true));
  EXPECT_EQ(mgr.node_count(keep), 16u);
  // And new operations still work and produce canonical results.
  EXPECT_EQ(keep & mgr.var(0), keep);
}

TEST(Bdd, NodeLimitAloneThrowsLengthError) {
  // A union of pseudo-random full-support minterms cannot stay under a
  // 128-node cap; the manager must refuse to grow past it with the
  // std::length_error the windowed flow turns into split/pass-through.
  const auto build = [](Manager& mgr) {
    Bdd f = mgr.zero();
    std::uint64_t state = 0xDEADBEEFCAFEF00Dull;
    for (int cube = 0; cube < 64; ++cube) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      Bdd minterm = mgr.one();
      for (int v = 0; v < 20; ++v) {
        minterm =
            minterm & (((state >> v) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
      }
      f = f | minterm;
    }
    return f;
  };
  Manager limited(32);
  limited.set_node_limit(128);
  EXPECT_EQ(limited.node_limit(), 128u);
  EXPECT_THROW(build(limited), std::length_error);

  Manager unlimited(32);
  EXPECT_GT(unlimited.node_count(build(unlimited)), 128u);
}

TEST(Bdd, EnsureVarsGrows) {
  Manager mgr(2);
  EXPECT_THROW(mgr.var(5), std::invalid_argument);
  mgr.ensure_vars(6);
  EXPECT_EQ(mgr.num_vars(), 6);
  EXPECT_EQ(mgr.support(mgr.var(5)), (std::vector<int>{5}));
}

TEST(Bdd, HandleCopySemantics) {
  Manager mgr(4);
  Bdd a = mgr.var(0);
  Bdd b = a;           // copy
  Bdd c = std::move(a);  // move
  EXPECT_FALSE(a.is_valid());
  EXPECT_EQ(b, c);
  b = b;  // self-assignment must be safe
  EXPECT_EQ(b, mgr.var(0));
}

TEST(Bdd, ToDotContainsStructure) {
  Manager mgr(3);
  const std::string dot = mgr.to_dot(mgr.var(0) & mgr.var(1), "f");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
}

class BddRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomEquivalence, MatchesTruthTableSemantics) {
  const int n = GetParam();
  Manager mgr(n);
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 31 + 1);
  std::vector<int> vars(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) vars[static_cast<std::size_t>(i)] = i;
  for (int trial = 0; trial < 8; ++trial) {
    const TruthTable ta = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const TruthTable tb = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const Bdd fa = mgr.from_truth_table(ta);
    const Bdd fb = mgr.from_truth_table(tb);
    EXPECT_EQ(mgr.to_truth_table(fa & fb, vars), ta & tb);
    EXPECT_EQ(mgr.to_truth_table(fa | fb, vars), ta | tb);
    EXPECT_EQ(mgr.to_truth_table(fa ^ fb, vars), ta ^ tb);
    EXPECT_EQ(mgr.to_truth_table(~fa, vars), ~ta);
    EXPECT_EQ(mgr.sat_count(fa, n), static_cast<double>(ta.count_ones()));
    EXPECT_EQ(mgr.disjoint(fa, fb), (ta & tb).is_zero());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BddRandomEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10));

}  // namespace
}  // namespace hyde::bdd
