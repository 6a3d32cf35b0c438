#include "decomp/chart.hpp"

#include <gtest/gtest.h>

#include <random>

#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound, std::vector<int> free) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  spec.free = std::move(free);
  return spec;
}

TEST(Chart, XorHasTwoColumns) {
  // f = x0 ^ x1 ^ x2 ^ x3 with bound {0,1}: cofactors are parity and its
  // complement -> exactly 2 distinct columns.
  Manager mgr(4);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1}, {2, 3});
  const auto columns = enumerate_columns(spec);
  EXPECT_EQ(columns.size(), 2u);
  EXPECT_EQ(count_columns(spec), 2);
  // Each column covers two of the four bound minterms.
  EXPECT_EQ(mgr.sat_count(columns[0].indicator, 2), 2.0);
  EXPECT_EQ(mgr.sat_count(columns[1].indicator, 2), 2.0);
  // Indicators partition the bound space.
  EXPECT_TRUE(mgr.disjoint(columns[0].indicator, columns[1].indicator));
  EXPECT_EQ(columns[0].indicator | columns[1].indicator, mgr.one());
}

TEST(Chart, AndHasTwoColumns) {
  // f = x0&x1&x2: bound {0,1} -> columns {0, x2}.
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1) & mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1}, {2});
  const auto columns = enumerate_columns(spec);
  ASSERT_EQ(columns.size(), 2u);
  // The column for minterms 00,01,10 is constant zero; 11 gives x2.
  const Bdd x0x1 = mgr.var(0) & mgr.var(1);
  const auto& zero_col = columns[0].indicator == x0x1 ? columns[1] : columns[0];
  const auto& var_col = columns[0].indicator == x0x1 ? columns[0] : columns[1];
  EXPECT_TRUE(zero_col.pattern.on.is_zero());
  EXPECT_EQ(zero_col.indicator, ~x0x1);
  EXPECT_EQ(var_col.pattern.on, mgr.var(2));
  EXPECT_EQ(var_col.indicator, x0x1);
}

TEST(Chart, FullBoundSetYieldsConstantPatterns) {
  Manager mgr(3);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2}, {});
  const auto columns = enumerate_columns(spec);
  EXPECT_EQ(columns.size(), 2u);  // constant 0 and constant 1
  for (const auto& c : columns) {
    EXPECT_TRUE(c.pattern.on.is_constant());
  }
}

TEST(Chart, EmptyBoundSetIsOneColumn) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) ^ mgr.var(2);
  const auto spec = make_spec(mgr, f, mgr.zero(), {}, {0, 1, 2});
  const auto columns = enumerate_columns(spec);
  ASSERT_EQ(columns.size(), 1u);
  EXPECT_EQ(columns[0].pattern.on, f);
  EXPECT_TRUE(columns[0].indicator.is_one());
}

TEST(Chart, DontCaresSplitColumns) {
  // on = x0 & x1 (bound {0}): columns differ; dc changes column identity.
  Manager mgr(2);
  const Bdd on = mgr.var(0) & mgr.var(1);
  const Bdd dc = ~mgr.var(0) & mgr.var(1);  // x0=0,x1=1 is don't care
  const auto spec = make_spec(mgr, on, dc, {0}, {1});
  const auto columns = enumerate_columns(spec);
  // Column x0=0: on=0, dc=x1. Column x0=1: on=x1, dc=0. Distinct pairs.
  EXPECT_EQ(columns.size(), 2u);
}

TEST(Chart, RejectsOnlyANullManager) {
  // The cut-based chart has no bound-set cap: a parity over
  // kMaxBoundVars + 1 bound variables still has its two columns.
  Manager mgr(kMaxBoundVars + 2);
  Bdd parity = mgr.var(kMaxBoundVars + 1);
  std::vector<int> bound;
  for (int v = 0; v <= kMaxBoundVars; ++v) {
    parity = parity ^ mgr.var(v);
    bound.push_back(v);
  }
  const auto spec =
      make_spec(mgr, parity, mgr.zero(), bound, {kMaxBoundVars + 1});
  EXPECT_EQ(count_columns(spec), 2);
  EXPECT_EQ(enumerate_columns(spec).size(), 2u);
  DecompSpec null_spec;
  EXPECT_THROW(enumerate_columns(null_spec), std::invalid_argument);
  EXPECT_THROW(count_columns(null_spec), std::invalid_argument);
}

TEST(Chart, MintermCubeBuildsCorrectCube) {
  Manager mgr(5);
  const Bdd cube = minterm_cube(mgr, {1, 3, 4}, 0b101);  // x1=1, x3=0, x4=1
  EXPECT_EQ(cube, mgr.var(1) & mgr.nvar(3) & mgr.var(4));
  EXPECT_EQ(minterm_cube(mgr, {}, 0), mgr.one());
}

TEST(Chart, ColumnsPartitionBoundSpaceRandomly) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 6;
    Manager mgr(n);
    const TruthTable table = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const Bdd f = mgr.from_truth_table(table);
    const auto spec = make_spec(mgr, f, mgr.zero(), {0, 1, 2}, {3, 4, 5});
    const auto columns = enumerate_columns(spec);
    // Each of the 8 bound assignments lies in exactly one indicator, and
    // that column's pattern is the cofactor there.
    for (int m = 0; m < 8; ++m) {
      std::vector<std::pair<int, bool>> assignment;
      for (int i = 0; i < 3; ++i) assignment.emplace_back(i, ((m >> i) & 1) != 0);
      int hits = 0;
      for (const auto& c : columns) {
        if (!mgr.cofactor_cube(c.indicator, assignment).is_one()) continue;
        ++hits;
        EXPECT_EQ(mgr.cofactor_cube(f, assignment), c.pattern.on);
      }
      EXPECT_EQ(hits, 1) << "bound minterm " << m;
    }
    EXPECT_EQ(count_columns(spec), static_cast<int>(columns.size()));
  }
}

}  // namespace
}  // namespace hyde::decomp
