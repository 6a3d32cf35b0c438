/// Corruption-injection tests for the persistent store: every damaged-disk
/// scenario — truncated shard, bit-flipped payload or key, stale format
/// version, fingerprint mismatch, a seeded soak of random shard mutations —
/// must degrade to a cold compute. Never a wrong result, never a crash. A
/// damaged record heals when its key is re-put and flushed. The final test
/// closes the loop at the flow level: a run over a corrupted store produces
/// the identical, verified network a run over an empty store does.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "gtest/gtest.h"
#include "mcnc/benchmarks.hpp"
#include "runtime/npn_cache.hpp"
#include "store/codec.hpp"
#include "store/persistent_cache.hpp"
#include "tt/truth_table.hpp"

#include <unistd.h>

namespace hyde::store {
namespace {

namespace fs = std::filesystem;

using core::CachedDecomposition;
using core::NpnCacheKey;
using core::TemplateNode;
using tt::TruthTable;

fs::path temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("hyde_store_corrupt_" + tag + "_" +
                        std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

NpnCacheKey key_n(int id, std::uint64_t fingerprint = 7) {
  TruthTable on(4);
  on.set_bit(static_cast<std::size_t>(id) % 16, true);
  on.set_bit((static_cast<std::size_t>(id) * 5 + 3) % 16, true);
  return NpnCacheKey{on, TruthTable(4), fingerprint};
}

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

/// Populates \p dir with kEntries records and returns the shard files that
/// actually hold data (the keys spread over several of the 8 shards).
constexpr int kEntries = 6;

std::vector<fs::path> populate(const fs::path& dir) {
  PersistentStore store(StoreOptions{dir.string(), false, 0});
  for (int i = 0; i < kEntries; ++i) store.put(key_n(i), value_n(i));
  EXPECT_TRUE(store.flush());
  std::vector<fs::path> shards;
  for (const auto& entry : fs::directory_iterator(dir)) {
    // A shard holding at least one record is bigger than its 12-byte header.
    if (entry.path().filename().string().rfind("shard-", 0) == 0 &&
        entry.file_size() > 12) {
      shards.push_back(entry.path());
    }
  }
  EXPECT_FALSE(shards.empty());
  return shards;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The shard a serialized key lives in (the store's own placement rule).
std::size_t shard_of(const std::vector<std::uint8_t>& key_bytes) {
  return fnv1a_bytes(key_bytes.data(), key_bytes.size()) %
         static_cast<std::size_t>(PersistentStore::kNumShards);
}

/// \p key with one minterm toggled: bits 0-15 of the onset, then 16-31 of
/// the dcset. Never equal to another key_n key, whose onsets hold exactly two
/// minterms and whose dcsets are empty.
NpnCacheKey neighbour(const NpnCacheKey& key, std::size_t bit) {
  NpnCacheKey other = key;
  TruthTable& table = bit < 16 ? other.on : other.dc;
  table.set_bit(bit % 16, !table.bit(bit % 16));
  return other;
}

/// After damage, the store must still open, serve only valid records, and
/// never crash; \p max_hits bounds how many of the original entries may
/// survive the specific damage.
void expect_degraded_not_broken(const fs::path& dir, std::uint64_t max_hits) {
  PersistentStore store(StoreOptions{dir.string(), false, 0});
  EXPECT_TRUE(store.ok());
  std::uint64_t hits = 0;
  for (int i = 0; i < kEntries; ++i) {
    const auto entry = store.lookup(key_n(i));
    if (entry.has_value()) {
      // Whatever survives must be exactly what was stored.
      EXPECT_EQ(entry->stats.decomposition_steps, i);
      ++hits;
    }
  }
  EXPECT_LE(hits, max_hits);
  EXPECT_EQ(store.counters().disk_hits, hits);
  EXPECT_EQ(store.counters().disk_misses,
            static_cast<std::uint64_t>(kEntries) - hits);
}

TEST(StoreCorruptionTest, TruncatedShardDegradesToColdCompute) {
  const fs::path dir = temp_dir("truncate");
  const auto shards = populate(dir);
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    bytes.resize(bytes.size() / 2);  // tear mid-record
    write_file(shard, bytes);
  }
  expect_degraded_not_broken(dir, kEntries - 1);
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, ShardCutToBareHeaderIsEmpty) {
  const fs::path dir = temp_dir("bare");
  const auto shards = populate(dir);
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    bytes.resize(12);  // header only
    write_file(shard, bytes);
  }
  expect_degraded_not_broken(dir, 0);
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, BitFlippedPayloadIsRejectedNotReplayed) {
  const fs::path dir = temp_dir("bitflip");
  const auto shards = populate(dir);
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    // Flip one bit in the second half of the file: inside some record's
    // key or payload, past the shard header.
    bytes[bytes.size() / 2 + bytes.size() / 4] ^= 0x10;
    write_file(shard, bytes);
  }
  // Each damaged shard loses at least the record the flip landed in (via
  // checksum/decode failure or a torn scan) — all its other records keep
  // working or disappear, but none may come back altered, which
  // expect_degraded_not_broken asserts on every survivor.
  expect_degraded_not_broken(dir, kEntries - 1);
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, StaleShardFormatVersionReadsAsEmpty) {
  const fs::path dir = temp_dir("version");
  const auto shards = populate(dir);
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    bytes[4] = 0xEE;  // shard header format version (u16 LE at offset 4)
    bytes[5] = 0xEE;
    write_file(shard, bytes);
  }
  expect_degraded_not_broken(dir, 0);
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, ArtifactFingerprintMismatchCountsCorrupt) {
  const fs::path dir = temp_dir("fingerprint");
  const auto shards = populate(dir);
  // Patch the fingerprint field *inside the artifact header* of the first
  // record of each shard (offset: 12-byte shard header + 16-byte record
  // header + key_size bytes + 8 bytes of artifact magic/version/kind). The
  // record key is untouched, so the lookup finds the record — and must then
  // reject it on the header cross-check.
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    const std::size_t key_size = static_cast<std::size_t>(bytes[20]) |
                                 (static_cast<std::size_t>(bytes[21]) << 8) |
                                 (static_cast<std::size_t>(bytes[22]) << 16) |
                                 (static_cast<std::size_t>(bytes[23]) << 24);
    const std::size_t artifact_at = 12 + 16 + key_size;
    ASSERT_LT(artifact_at + 16, bytes.size());
    for (std::size_t i = 0; i < 8; ++i) bytes[artifact_at + 8 + i] ^= 0xA5;
    write_file(shard, bytes);
  }
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    std::uint64_t hits = 0;
    for (int i = 0; i < kEntries; ++i) {
      if (store.lookup(key_n(i)).has_value()) ++hits;
    }
    EXPECT_LT(hits, static_cast<std::uint64_t>(kEntries));
    EXPECT_GE(store.counters().corrupt_records, shards.size());
  }
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, FlippedKeyBitNeverServesAnotherKeysTemplate) {
  const fs::path dir = temp_dir("keyflip");
  populate(dir);
  // Overwrite each stored key with a single-bit neighbour that maps to the
  // same shard, so a lookup of the neighbour reaches the damaged record;
  // the checksum over key and payload must reject it.
  std::vector<NpnCacheKey> flipped;
  for (int i = 0; i < kEntries; ++i) {
    const std::vector<std::uint8_t> stored = serialize_key(key_n(i));
    for (std::size_t bit = 0; bit < 32; ++bit) {
      const NpnCacheKey other = neighbour(key_n(i), bit);
      const std::vector<std::uint8_t> other_bytes = serialize_key(other);
      if (shard_of(other_bytes) != shard_of(stored)) continue;
      const fs::path shard =
          dir / ("shard-" + std::to_string(shard_of(stored)) + ".bin");
      std::vector<std::uint8_t> bytes = read_file(shard);
      const auto at =
          std::search(bytes.begin(), bytes.end(), stored.begin(), stored.end());
      ASSERT_NE(at, bytes.end());
      std::copy(other_bytes.begin(), other_bytes.end(), at);
      write_file(shard, bytes);
      flipped.push_back(other);
      break;
    }
  }
  ASSERT_FALSE(flipped.empty());

  PersistentStore store(StoreOptions{dir.string(), false, 0});
  for (const NpnCacheKey& key : flipped) {
    EXPECT_FALSE(store.lookup(key).has_value())
        << "a flipped key was served another key's template";
  }
  EXPECT_EQ(store.counters().corrupt_records, flipped.size());
  fs::remove_all(dir);
}

/// Session 2 looks every key up, re-puts the \p damaged ones that miss and
/// flushes; session 3 must then hit every key with no corrupt record left.
void expect_reput_heals(const fs::path& dir, std::uint64_t damaged) {
  {
    PersistentStore store(StoreOptions{dir.string(), false, 0});
    for (int i = 0; i < kEntries; ++i) {
      if (!store.lookup(key_n(i)).has_value()) store.put(key_n(i), value_n(i));
    }
    EXPECT_EQ(store.counters().corrupt_records, damaged);
    EXPECT_EQ(store.counters().appends, damaged);
    ASSERT_TRUE(store.flush());
  }
  PersistentStore healed(StoreOptions{dir.string(), false, 0});
  for (int i = 0; i < kEntries; ++i) {
    const auto entry = healed.lookup(key_n(i));
    ASSERT_TRUE(entry.has_value()) << "key " << i << " was not healed";
    EXPECT_EQ(entry->stats.decomposition_steps, i);
  }
  EXPECT_EQ(healed.counters().corrupt_records, 0u);
}

TEST(StoreCorruptionTest, RePutHealsACorruptRecord) {
  const fs::path dir = temp_dir("heal");
  const auto shards = populate(dir);
  for (const fs::path& shard : shards) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    bytes.back() ^= 0x01;  // the last record's payload: checksum fails
    write_file(shard, bytes);
  }
  expect_reput_heals(dir, shards.size());
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, RePutUpgradesAVersionOneArtifact) {
  const fs::path dir = temp_dir("upgrade");
  const std::vector<std::uint8_t> magic = {'H', 'Y', 'A', 'C'};
  std::uint64_t artifacts = 0;
  for (const fs::path& shard : populate(dir)) {
    std::vector<std::uint8_t> bytes = read_file(shard);
    // Stamp format version 1 (u16 LE after the artifact magic) on every
    // artifact in the shard.
    for (auto at = bytes.begin();
         (at = std::search(at, bytes.end(), magic.begin(), magic.end())) !=
         bytes.end();
         at += 4) {
      at[4] = 1;
      at[5] = 0;
      ++artifacts;
    }
    write_file(shard, bytes);
  }
  ASSERT_EQ(artifacts, static_cast<std::uint64_t>(kEntries));
  expect_reput_heals(dir, artifacts);
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, SeededShardMutationSoakServesOnlyStoredValues) {
  const fs::path dir = temp_dir("soak");
  const auto shards = populate(dir);
  std::vector<std::vector<std::uint8_t>> originals;
  for (const fs::path& shard : shards) originals.push_back(read_file(shard));

  std::mt19937_64 rng(0x50A4u);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int m = 0; m < 320; ++m) {
    const std::size_t target = below(shards.size());
    std::vector<std::uint8_t> bytes = originals[target];
    const std::size_t at = below(bytes.size());
    std::vector<std::uint8_t> run;  // bytes to insert at `at`
    switch (m % 4) {
      case 0:  // single-bit flip
        bytes[at] = static_cast<std::uint8_t>(bytes[at] ^ (1u << below(8)));
        break;
      case 1:  // truncation
        bytes.resize(at);
        break;
      case 2:  // inserted run of arbitrary bytes
        run.resize(1 + below(16));
        for (std::uint8_t& b : run) b = static_cast<std::uint8_t>(rng());
        break;
      default: {  // duplicated run of the shard's own bytes
        const std::size_t from = below(bytes.size());
        const std::size_t length =
            1 + below(std::min<std::size_t>(64, bytes.size() - from));
        run.assign(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                   bytes.begin() + static_cast<std::ptrdiff_t>(from + length));
      }
    }
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), run.begin(),
                 run.end());
    write_file(shards[target], bytes);

    SCOPED_TRACE("mutation " + std::to_string(m) + " at offset " +
                 std::to_string(at) + " of " +
                 shards[target].filename().string());
    PersistentStore store(StoreOptions{dir.string(), true, 0});
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < kEntries; ++i) {
      const auto entry = store.lookup(key_n(i));
      if (entry.has_value()) {
        EXPECT_EQ(serialize_template(*entry), serialize_template(value_n(i)));
      }
      for (std::size_t bit = 0; bit < 32; ++bit) {
        EXPECT_FALSE(store.lookup(neighbour(key_n(i), bit)).has_value());
      }
    }
    write_file(shards[target], originals[target]);
  }
  fs::remove_all(dir);
}

TEST(StoreCorruptionTest, FlowOverCorruptStoreMatchesFlowOverEmptyStore) {
  const net::Network input = mcnc::make_circuit("rd73");
  core::FlowOptions options = core::hyde_options(5);

  // Reference: flow over a fresh, empty store.
  const fs::path ref_dir = temp_dir("flow_ref");
  baseline::BaselineResult reference;
  {
    runtime::NpnResultCache memory;
    PersistentStore disk(StoreOptions{ref_dir.string(), false, 0});
    TieredCache tiered(&memory, &disk);
    options.cache = &tiered;
    reference = baseline::run_system(input, baseline::System::kHyde, options,
                                     64);
  }
  ASSERT_TRUE(reference.verified);

  // Candidate: flow over that same store after vandalizing every shard.
  for (const auto& entry : fs::directory_iterator(ref_dir)) {
    if (entry.path().filename().string().rfind("shard-", 0) != 0) continue;
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    for (std::size_t i = 12; i < bytes.size(); i += 7) bytes[i] ^= 0xFF;
    write_file(entry.path(), bytes);
  }
  baseline::BaselineResult damaged;
  {
    runtime::NpnResultCache memory;
    PersistentStore disk(StoreOptions{ref_dir.string(), false, 0});
    TieredCache tiered(&memory, &disk);
    options.cache = &tiered;
    damaged = baseline::run_system(input, baseline::System::kHyde, options,
                                   64);
  }
  EXPECT_TRUE(damaged.verified);
  EXPECT_EQ(damaged.luts, reference.luts);
  EXPECT_EQ(damaged.depth, reference.depth);
  fs::remove_all(ref_dir);
}

}  // namespace
}  // namespace hyde::store
