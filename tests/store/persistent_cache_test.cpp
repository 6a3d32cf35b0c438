/// Tests for the sharded persistent store (src/store/persistent_cache):
/// cross-reopen round-trips, the readonly and budget/eviction policies, the
/// tiered memory→disk composition, and concurrent access. The suite name is
/// matched by the CI ThreadSanitizer job (`|PersistentCache` in its regex),
/// so the concurrency tests here run under TSan on every push.

#include "store/persistent_cache.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "runtime/npn_cache.hpp"
#include "tt/truth_table.hpp"

#include <unistd.h>

namespace hyde::store {
namespace {

namespace fs = std::filesystem;

using core::CachedDecomposition;
using core::LookupTier;
using core::NpnCacheKey;
using core::TemplateNode;
using tt::TruthTable;

/// Fresh per-test directory under the system temp root. The pid suffix keeps
/// concurrently running test binaries (e.g. ctest -j) from colliding.
fs::path temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("hyde_store_test_" + tag + "_" +
                        std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

/// Deterministic distinct keys: 4-variable onset tables seeded by \p id.
NpnCacheKey key_n(int id, std::uint64_t fingerprint = 7) {
  TruthTable on(4);
  on.set_bit(static_cast<std::size_t>(id) % 16, true);
  on.set_bit((static_cast<std::size_t>(id) * 5 + 3) % 16, true);
  return NpnCacheKey{on, TruthTable(4), fingerprint};
}

/// One fixed-size template per id so eviction-budget math stays exact:
/// every record in these tests serializes to the same number of bytes.
CachedDecomposition value_n(int id) {
  CachedDecomposition entry;
  entry.num_inputs = 4;
  TruthTable table(2);
  table.set_bit(static_cast<std::size_t>(id) % 4, true);
  entry.nodes.push_back(TemplateNode{{0, 1}, table});
  entry.nodes.push_back(TemplateNode{{2, 3}, TruthTable::from_bits("0110")});
  entry.root = 5;
  entry.stats.decomposition_steps = id;
  return entry;
}

void expect_equal(const CachedDecomposition& a, const CachedDecomposition& b) {
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].fanins, b.nodes[i].fanins);
    EXPECT_EQ(a.nodes[i].table, b.nodes[i].table);
  }
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.stats.decomposition_steps, b.stats.decomposition_steps);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

TEST(PersistentCacheTest, RoundTripsAcrossReopen) {
  const fs::path dir = temp_dir("roundtrip");
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 5; ++i) store.put(key_n(i), value_n(i));
    EXPECT_TRUE(store.flush());
    const StoreCounters c = store.counters();
    EXPECT_EQ(c.appends, 5u);
    EXPECT_EQ(c.records, 5u);
    EXPECT_GT(c.bytes_written, 0u);
  }
  PersistentStore reopened(StoreOptions{dir.string(), false, 0});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.counters().records, 5u);
  for (int i = 0; i < 5; ++i) {
    const auto entry = reopened.lookup(key_n(i));
    ASSERT_TRUE(entry.has_value()) << "key " << i;
    expect_equal(value_n(i), *entry);
  }
  const StoreCounters c = reopened.counters();
  EXPECT_EQ(c.disk_hits, 5u);
  EXPECT_EQ(c.disk_misses, 0u);
  EXPECT_GT(c.bytes_read, 0u);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, DestructorFlushesPendingPuts) {
  const fs::path dir = temp_dir("dtor_flush");
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    store.put(key_n(0), value_n(0));
    // No explicit flush: the destructor must commit.
  }
  PersistentStore reopened(StoreOptions{dir.string(), false, 0});
  EXPECT_TRUE(reopened.lookup(key_n(0)).has_value());
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, MissesAreCountedAndKeysFullyCompared) {
  const fs::path dir = temp_dir("misses");
  PersistentStore store(StoreOptions{dir.string(), false, 0});
  store.put(key_n(1, 7), value_n(1));
  ASSERT_TRUE(store.flush());
  EXPECT_TRUE(store.lookup(key_n(1, 7)).has_value());
  // Same tables, different options fingerprint: a different key entirely.
  EXPECT_FALSE(store.lookup(key_n(1, 8)).has_value());
  EXPECT_FALSE(store.lookup(key_n(2, 7)).has_value());
  const StoreCounters c = store.counters();
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.disk_misses, 2u);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, DuplicatePutsAreDropped) {
  const fs::path dir = temp_dir("dedup");
  PersistentStore store(StoreOptions{dir.string(), false, 0});
  store.put(key_n(0), value_n(0));
  store.put(key_n(0), value_n(0));
  ASSERT_TRUE(store.flush());
  store.put(key_n(0), value_n(0));  // already on disk: dropped too
  EXPECT_EQ(store.counters().appends, 1u);
  EXPECT_EQ(store.counters().records, 1u);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, FlushWithNothingPendingIsANoOp) {
  const fs::path dir = temp_dir("noop_flush");
  PersistentStore store(StoreOptions{dir.string(), false, 0});
  store.put(key_n(0), value_n(0));
  ASSERT_TRUE(store.flush());
  const std::uint64_t written = store.counters().bytes_written;
  EXPECT_TRUE(store.flush());
  EXPECT_EQ(store.counters().bytes_written, written);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, ReadonlyOnMissingDirectoryIsAnEmptyStore) {
  const fs::path dir = temp_dir("ro_missing");
  PersistentStore store(StoreOptions{dir.string(), true, 0});
  EXPECT_TRUE(store.ok());
  EXPECT_FALSE(store.lookup(key_n(0)).has_value());
  store.put(key_n(0), value_n(0));
  EXPECT_TRUE(store.flush());
  EXPECT_FALSE(fs::exists(dir)) << "readonly store must never create files";
}

TEST(PersistentCacheTest, ReadonlyReadsButNeverWrites) {
  const fs::path dir = temp_dir("ro");
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    store.put(key_n(0), value_n(0));
    ASSERT_TRUE(store.flush());
  }
  const std::uint64_t size_before = dir_bytes(dir);
  {
    PersistentStore store(StoreOptions{dir.string(), true, 0});
    ASSERT_TRUE(store.ok());
    const auto entry = store.lookup(key_n(0));
    ASSERT_TRUE(entry.has_value());
    expect_equal(value_n(0), *entry);
    store.put(key_n(1), value_n(1));  // dropped
    EXPECT_TRUE(store.flush());
    EXPECT_EQ(store.counters().appends, 0u);
    EXPECT_EQ(store.counters().bytes_written, 0u);
  }
  EXPECT_EQ(dir_bytes(dir), size_before);
  {
    PersistentStore reopened(StoreOptions{dir.string(), false, 0});
    EXPECT_FALSE(reopened.lookup(key_n(1)).has_value());
  }
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, UnusableDirectoryDegradesToAlwaysMissSink) {
  // A path whose parent is a regular file cannot become a directory.
  const fs::path blocker = temp_dir("blocker");
  fs::create_directories(blocker);
  const fs::path file = blocker / "file";
  { std::ofstream(file.string()) << "x"; }
  PersistentStore store(
      StoreOptions{(file / "cache").string(), false, 0});
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.lookup(key_n(0)).has_value());
  store.put(key_n(0), value_n(0));
  EXPECT_TRUE(store.flush());
  EXPECT_EQ(store.counters().appends, 0u);
  fs::remove_all(blocker);
}

TEST(PersistentCacheTest, EvictionDropsOldestGenerationFirst) {
  const fs::path dir = temp_dir("evict");
  // Session 1: two records, no budget.
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    store.put(key_n(0), value_n(0));
    store.put(key_n(1), value_n(1));
    ASSERT_TRUE(store.flush());
  }
  const std::uint64_t two_records = dir_bytes(dir);
  // Session 2: touch key 1 (bumping its generation past key 0's), add key 2,
  // and flush under a budget that fits only two records. Key 0 — untouched,
  // oldest generation — must be the one evicted.
  {
    PersistentStore store(
        StoreOptions{dir.string(), false, two_records + 8});
    EXPECT_TRUE(store.lookup(key_n(1)).has_value());
    store.put(key_n(2), value_n(2));
    ASSERT_TRUE(store.flush());
    EXPECT_GE(store.counters().evictions, 1u);
  }
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    EXPECT_FALSE(store.lookup(key_n(0)).has_value()) << "oldest must be gone";
    EXPECT_TRUE(store.lookup(key_n(1)).has_value());
    EXPECT_TRUE(store.lookup(key_n(2)).has_value());
  }
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, TieredLookupFallsThroughAndPromotes) {
  const fs::path dir = temp_dir("tiered");
  {
    PersistentStore seed(StoreOptions{dir.string(), false, 0});
    seed.put(key_n(0), value_n(0));
    ASSERT_TRUE(seed.flush());
  }
  PersistentStore disk(StoreOptions{dir.string(), false, 0});
  runtime::NpnResultCache memory;
  TieredCache tiered(&memory, &disk);
  EXPECT_TRUE(tiered.has_persistent_tier());

  LookupTier tier = LookupTier::kMiss;
  const auto first = tiered.lookup_tiered(key_n(0), &tier);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(tier, LookupTier::kDisk);
  expect_equal(value_n(0), *first);

  // Promotion: the second lookup is served by the memory tier.
  const auto second = tiered.lookup_tiered(key_n(0), &tier);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(tier, LookupTier::kMemory);
  EXPECT_EQ(disk.counters().disk_hits, 1u);

  const auto missing = tiered.lookup_tiered(key_n(9), &tier);
  EXPECT_EQ(missing, nullptr);
  EXPECT_EQ(tier, LookupTier::kMiss);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, TieredInsertWritesThroughToDisk) {
  const fs::path dir = temp_dir("write_through");
  {
    PersistentStore disk(StoreOptions{dir.string(), false, 0});
    runtime::NpnResultCache memory;
    TieredCache tiered(&memory, &disk);
    const auto entry = tiered.insert(key_n(3), value_n(3));
    ASSERT_NE(entry, nullptr);
    EXPECT_NE(memory.lookup(key_n(3)), nullptr);
    EXPECT_EQ(disk.counters().appends, 1u);
    ASSERT_TRUE(disk.flush());
  }
  PersistentStore reopened(StoreOptions{dir.string(), false, 0});
  const auto entry = reopened.lookup(key_n(3));
  ASSERT_TRUE(entry.has_value());
  expect_equal(value_n(3), *entry);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, NullDiskTierIsAPassThrough) {
  runtime::NpnResultCache memory;
  TieredCache tiered(&memory, nullptr);
  EXPECT_FALSE(tiered.has_persistent_tier());
  EXPECT_EQ(tiered.lookup(key_n(0)), nullptr);
  EXPECT_NE(tiered.insert(key_n(0), value_n(0)), nullptr);
  core::LookupTier tier = LookupTier::kMiss;
  EXPECT_NE(tiered.lookup_tiered(key_n(0), &tier), nullptr);
  EXPECT_EQ(tier, LookupTier::kMemory);
}

TEST(PersistentCacheTest, ConcurrentLookupsAndPutsAreSafe) {
  const fs::path dir = temp_dir("concurrent");
  {
    PersistentStore seed(StoreOptions{dir.string(), false, 0});
    for (int i = 0; i < 8; ++i) seed.put(key_n(i), value_n(i));
    ASSERT_TRUE(seed.flush());
  }
  PersistentStore disk(StoreOptions{dir.string(), false, 0});
  runtime::NpnResultCache memory;
  TieredCache tiered(&memory, &disk);

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&tiered, t] {
      for (int round = 0; round < 50; ++round) {
        const int id = (t + round) % 16;
        const auto entry = tiered.lookup(key_n(id));
        if (entry != nullptr) {
          EXPECT_EQ(entry->stats.decomposition_steps, id);
        } else {
          tiered.insert(key_n(id), value_n(id));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int i = 0; i < 16; ++i) {
    const auto entry = tiered.lookup(key_n(i));
    ASSERT_NE(entry, nullptr) << "key " << i;
    expect_equal(value_n(i), *entry);
  }
  ASSERT_TRUE(disk.flush());
  EXPECT_EQ(disk.counters().records, 16u);
  fs::remove_all(dir);
}

TEST(PersistentCacheTest, TwoStoresOnOneDirectoryMergeTheirFlushes) {
  // Two stores in one process stand in for two processes: both buffer puts
  // against the same directory and flush in some order; nothing is lost.
  const fs::path dir = temp_dir("merge");
  PersistentStore a(StoreOptions{dir.string(), false, 0});
  PersistentStore b(StoreOptions{dir.string(), false, 0});
  a.put(key_n(0), value_n(0));
  a.put(key_n(1), value_n(1));
  b.put(key_n(1), value_n(1));  // racing duplicate: bit-identical by contract
  b.put(key_n(2), value_n(2));
  ASSERT_TRUE(a.flush());
  ASSERT_TRUE(b.flush());

  PersistentStore check(StoreOptions{dir.string(), false, 0});
  EXPECT_EQ(check.counters().records, 3u);
  for (int i = 0; i < 3; ++i) {
    const auto entry = check.lookup(key_n(i));
    ASSERT_TRUE(entry.has_value()) << "key " << i;
    expect_equal(value_n(i), *entry);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hyde::store
