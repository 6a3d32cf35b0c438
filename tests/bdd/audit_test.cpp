/// Corruption-injection tests for Manager::audit_invariants(): every defect
/// class the auditor guards is seeded through ManagerTestPeer and must be
/// reported, and a clean manager must stay clean through work and GC.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_internal.hpp"
#include "bdd/transfer.hpp"
#include "corrupt_peer.hpp"

namespace hyde::bdd {
namespace {

using Kind = InvariantViolation::Kind;

Bdd build_some_function(Manager& m) {
  const Bdd x0 = m.var(0);
  const Bdd x1 = m.var(1);
  const Bdd x2 = m.var(2);
  const Bdd x3 = m.var(3);
  return (x0 & x1) | (x2 ^ x3);
}

TEST(AuditTest, CleanManagerPassesAudit) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  const Bdd g = m.exists(f, {1, 2});
  EXPECT_TRUE(g.is_valid());
  EXPECT_TRUE(m.audit_invariants().ok()) << m.audit_invariants().to_string();
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(AuditTest, CleanManagerPassesAuditAfterGarbageCollection) {
  Manager m(8);
  {
    const Bdd dead = build_some_function(m);
    (void)dead;
  }
  const Bdd live = build_some_function(m) ^ m.var(5);
  m.collect_garbage();
  EXPECT_TRUE(m.audit_invariants().ok()) << m.audit_invariants().to_string();
  // x0..x5 = F,F,T,F,F,F: ((x0 & x1) | (x2 ^ x3)) ^ x5 = (F | T) ^ F = T.
  EXPECT_TRUE(m.eval(live, {false, false, true, false, false, false}));
}

TEST(AuditTest, DetectsDanglingComputedTableEntry) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  // An entry whose operand points far outside the node store.
  ManagerTestPeer::poison_cache(
      m, internal::op_key(internal::kOpAnd, 0x00FFFFFFu), f.id(), f.id());
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kComputedTable)) << report.to_string();
}

TEST(AuditTest, DetectsComputedTableEntryReferencingDeadNode) {
  Manager m(8);
  std::uint32_t dead_id = 0;
  {
    const Bdd dead = m.var(6) & m.var(7);
    dead_id = dead.id();
  }
  const Bdd live = build_some_function(m);
  m.collect_garbage();  // frees dead_id and clears the computed table
  ASSERT_TRUE(m.audit_invariants().ok());
  ManagerTestPeer::poison_cache(
      m, internal::op_key(internal::kOpAnd, dead_id), live.id(), live.id());
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kComputedTable)) << report.to_string();
}

TEST(AuditTest, DetectsRefcountDrift) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  ManagerTestPeer::drift_ext_refs(m, f.id(), 3);
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kRefCount)) << report.to_string();
}

TEST(AuditTest, DetectsOutOfOrderNode) {
  Manager m(8);
  // f branches on x0 at the top; its x1-branching child is below it.
  const Bdd f = m.ite(m.var(0), m.var(1), m.nvar(1));
  const std::uint32_t child = f.high().id();
  ManagerTestPeer::set_var(m, child, 0);  // now parent var == child var
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kNodeStructure)) << report.to_string();
}

TEST(AuditTest, DetectsDuplicateTripleInUniqueTable) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  ManagerTestPeer::clone_node(m, f.id());
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kUniqueTable)) << report.to_string();
}

TEST(AuditTest, DetectsFreeListLosingADeadSlot) {
  Manager m(8);
  {
    const Bdd dead = m.var(6) & m.var(7) & m.var(5);
    (void)dead;
  }
  const Bdd live = build_some_function(m);
  (void)live;
  m.collect_garbage();
  ASSERT_GT(ManagerTestPeer::free_list_size(m), 0u);
  ManagerTestPeer::lose_free_slot(m);
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kFreeList)) << report.to_string();
}

TEST(AuditTest, DetectsLiveNodeOnFreeList) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  ManagerTestPeer::push_free_slot(m, f.id());
  const InvariantReport report = m.audit_invariants();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Kind::kFreeList)) << report.to_string();
}

TEST(AuditTest, CheckInvariantsThrowsWithReportText) {
  Manager m(8);
  const Bdd f = build_some_function(m);
  ManagerTestPeer::drift_ext_refs(m, f.id(), 1);
  try {
    m.check_invariants();
    FAIL() << "check_invariants did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("refcount drift"),
              std::string::npos);
  }
}

// --- kernel entry-point validation ----------------------------------------

TEST(AuditTest, ComposeRejectsOutOfRangeVariable) {
  Manager m(4);
  const Bdd f = m.var(0) & m.var(1);
  const Bdd g = m.var(2);
  EXPECT_THROW(m.compose(f, 17, g), std::invalid_argument);
  EXPECT_THROW(m.compose(f, -1, g), std::invalid_argument);
}

TEST(AuditTest, VectorComposeRejectsForeignHandles) {
  Manager a(4);
  Manager b(4);
  const Bdd f = a.var(0) & a.var(1);
  const std::unordered_map<int, Bdd, std::hash<int>> map{{0, b.var(2)}};
  EXPECT_THROW(a.vector_compose(f, map), std::invalid_argument);
}

// --- cross-manager misuse death tests (HYDE_CHECKED and normal builds) ----
//
// check_owned throws std::invalid_argument; the harness converts it into the
// abort a hardened production binary would perform (gtest intercepts
// exceptions that merely escape the death-test statement), with the
// diagnostic on stderr for the death matcher.

using AuditDeathTest = ::testing::Test;

template <typename Misuse>
[[noreturn]] void die_on_misuse(Misuse&& misuse) {
  try {
    misuse();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
  }
  std::abort();
}

TEST(AuditDeathTest, CrossManagerApplyDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(die_on_misuse([] {
                 Manager a(4);
                 Manager b(4);
                 const Bdd x = a.var(0);
                 const Bdd y = b.var(1);
                 const Bdd r = a.bdd_and(x, y);
                 (void)r;
               }),
               "different manager");
}

TEST(AuditDeathTest, CrossManagerIteDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(die_on_misuse([] {
                 Manager a(4);
                 Manager b(4);
                 const Bdd r = a.ite(a.var(0), b.var(1), a.var(2));
                 (void)r;
               }),
               "different manager");
}

TEST(AuditDeathTest, CrossManagerComposeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(die_on_misuse([] {
                 Manager a(4);
                 Manager b(4);
                 const Bdd r = a.compose(a.var(0), 0, b.var(1));
                 (void)r;
               }),
               "different manager");
}

TEST(AuditDeathTest, CrossManagerTransferSubstitutionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(die_on_misuse([] {
                 Manager a(4);
                 Manager b(4);
                 // Substitution handles must belong to the target manager.
                 const Bdd f = a.var(0) & a.var(1);
                 const std::vector<Bdd> subst{a.var(0), a.var(1)};
                 const Bdd r = transfer_compose(f, b, subst);
                 (void)r;
               }),
               "different manager");
}

}  // namespace
}  // namespace hyde::bdd
