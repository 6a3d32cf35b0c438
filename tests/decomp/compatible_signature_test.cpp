/// \file compatible_signature_test.cpp
/// \brief Equivalence tests for the class-computation fast paths: the
/// packed-signature compatibility test and the incremental clique
/// partitioner must produce byte-for-byte the same ClassResult as per-pair
/// BDD compatibility tests and the reference partitioner, on charts with and
/// without don't cares, and the ClassStats counters must attribute pairs to
/// the path that actually decided them.

#include "decomp/compatible.hpp"

#include <gtest/gtest.h>

#include <random>

#include "oracle/clique_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound, std::vector<int> free_vars) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  spec.free = std::move(free_vars);
  return spec;
}

DecompSpec random_isf_spec(Manager& mgr, std::mt19937_64& rng) {
  // DC-rich: roughly a third of the space is on, a quarter don't-care.
  const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
      6, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
  const Bdd dc_raw = mgr.from_truth_table(TruthTable::from_lambda(
      6, [&rng](std::uint64_t) { return (rng() % 4) == 0; }));
  return make_spec(mgr, on, dc_raw & ~on, {0, 1, 2}, {3, 4, 5});
}

/// compute_compatible_classes rebuilt from its definition: the chart's
/// columns, the compatibility graph from per-pair BDD tests, and the
/// recount-from-scratch clique partitioner.
ClassResult oracle_classes(const DecompSpec& spec) {
  Manager& mgr = *spec.mgr;
  DecompSpec chart_spec = spec;
  chart_spec.include_minterms = false;
  ClassResult result;
  result.columns = enumerate_columns(chart_spec);
  const std::size_t n = result.columns.size();
  std::vector<std::vector<char>> adjacent(n, std::vector<char>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      adjacent[i][j] = i != j && columns_compatible(mgr, result.columns[i].pattern,
                                                    result.columns[j].pattern);
    }
  }
  for (const auto& members :
       graph::clique_partition_reference(static_cast<int>(n), adjacent)) {
    CompatibleClass cls;
    cls.columns = members;
    cls.function = merge_columns(mgr, result.columns, members);
    cls.indicator = mgr.zero();
    for (int m : members) {
      cls.indicator =
          cls.indicator | result.columns[static_cast<std::size_t>(m)].indicator;
    }
    result.classes.push_back(std::move(cls));
  }
  return result;
}

void expect_same_result(const ClassResult& a, const ClassResult& b,
                        const char* label) {
  ASSERT_EQ(a.columns.size(), b.columns.size()) << label;
  for (std::size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].pattern.on, b.columns[c].pattern.on) << label;
    EXPECT_EQ(a.columns[c].pattern.dc, b.columns[c].pattern.dc) << label;
    EXPECT_EQ(a.columns[c].indicator, b.columns[c].indicator) << label;
  }
  ASSERT_EQ(a.classes.size(), b.classes.size()) << label;
  for (std::size_t k = 0; k < a.classes.size(); ++k) {
    EXPECT_EQ(a.classes[k].columns, b.classes[k].columns) << label;
    EXPECT_EQ(a.classes[k].function.on, b.classes[k].function.on) << label;
    EXPECT_EQ(a.classes[k].function.dc, b.classes[k].function.dc) << label;
    EXPECT_EQ(a.classes[k].indicator, b.classes[k].indicator) << label;
  }
}

TEST(CompatibleSignature, NoDontCaresPoliciesAgree) {
  // Completely specified charts: compatibility degenerates to equality, so
  // clique partitioning must return exactly the distinct columns.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    Manager mgr(6);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
    const auto spec = make_spec(mgr, on, mgr.zero(), {0, 1, 2}, {3, 4, 5});
    const int distinct =
        count_compatible_classes(spec, DcPolicy::kDistinctColumns);
    EXPECT_EQ(count_compatible_classes(spec, DcPolicy::kCliquePartition),
              distinct)
        << "trial " << trial;
    const auto result =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition);
    EXPECT_EQ(result.num_classes(), distinct);
    for (const auto& cls : result.classes) {
      EXPECT_EQ(cls.columns.size(), 1u) << "trial " << trial;
    }
  }
}

TEST(CompatibleSignature, DcRichKnobCombosAreResultNeutral) {
  // The production path (signatures + incremental clique partitioning) must
  // agree exactly with the BDD-predicate + reference-partitioner oracle on
  // DC-rich random charts.
  std::mt19937_64 rng(909);
  for (int trial = 0; trial < 12; ++trial) {
    Manager mgr(6);
    const auto spec = random_isf_spec(mgr, rng);
    expect_same_result(
        compute_compatible_classes(spec, DcPolicy::kCliquePartition),
        oracle_classes(spec), "oracle");
  }
}

TEST(CompatibleSignature, StatsAttributePairsToTheDecidingPath) {
  // Narrow chart: the row space (2^3) fits kMaxSignatureRows, so every pair
  // is decided by signature words.
  Manager mgr(6);
  std::mt19937_64 rng(606);
  const auto spec = random_isf_spec(mgr, rng);
  ClassStats sig_stats;
  const auto result =
      compute_compatible_classes(spec, DcPolicy::kCliquePartition, &sig_stats);
  const auto n = static_cast<std::uint64_t>(result.columns.size());
  ASSERT_GE(n, 2u);
  EXPECT_EQ(sig_stats.signature_pairs, n * (n - 1) / 2);
  EXPECT_EQ(sig_stats.bdd_pairs, 0u);

  // Wide chart: the patterns span 14 free variables (2^14 rows), past
  // kMaxSignatureRows, so every pair falls back to BDD tests.
  Manager wide(16);
  Bdd parity = wide.zero();
  for (int v = 2; v < 16; ++v) parity = parity ^ wide.var(v);
  const Bdd on = (wide.var(0) & parity) |
                 (wide.nvar(0) & wide.var(1) & wide.var(2) & wide.var(3));
  const Bdd dc = wide.nvar(0) & wide.nvar(1) & wide.var(4);
  std::vector<int> free_vars;
  for (int v = 2; v < 16; ++v) free_vars.push_back(v);
  const auto wide_spec = make_spec(wide, on, dc, {0, 1}, free_vars);
  ClassStats bdd_stats;
  const auto wide_result = compute_compatible_classes(
      wide_spec, DcPolicy::kCliquePartition, &bdd_stats);
  const auto m = static_cast<std::uint64_t>(wide_result.columns.size());
  ASSERT_EQ(m, 3u);
  EXPECT_EQ(bdd_stats.bdd_pairs, m * (m - 1) / 2);
  EXPECT_EQ(bdd_stats.signature_pairs, 0u);
  expect_same_result(wide_result, oracle_classes(wide_spec), "wide oracle");
}

TEST(CompatibleSignature, SignatureAgreesWithBddPredicatePerPair) {
  // Direct cross-check of the two compatibility tests, pair by pair: derive
  // signatures for the enumerated columns and compare the word-form verdict
  // against columns_compatible for every column pair.
  std::mt19937_64 rng(1717);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(6);
    const auto spec = random_isf_spec(mgr, rng);
    const auto columns = enumerate_columns(spec);
    const auto sigs = column_signatures(spec, columns);
    ASSERT_EQ(sigs.size(), columns.size()) << "trial " << trial;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      for (std::size_t j = i + 1; j < columns.size(); ++j) {
        bool word_ok = true;
        for (std::size_t w = 0; w < sigs[i].on.size(); ++w) {
          const std::uint64_t clash =
              (sigs[i].on[w] & sigs[j].care[w] & ~sigs[j].on[w]) |
              (sigs[j].on[w] & sigs[i].care[w] & ~sigs[i].on[w]);
          if (clash != 0) {
            word_ok = false;
            break;
          }
        }
        EXPECT_EQ(word_ok, columns_compatible(mgr, columns[i].pattern,
                                              columns[j].pattern))
            << "trial " << trial << " pair " << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace hyde::decomp
