#include "store/persistent_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

#include "store/codec.hpp"

namespace hyde::store {

namespace {

// Shard file layout. Header: magic, format version, shard index, shard
// count. Records follow back to back: magic, generation, key size, payload
// size, key bytes (full serialized NpnCacheKey or blob key), payload bytes
// (artifact, codec.hpp). A reader stops at the first malformed record, so a
// torn tail only costs the records behind it.
constexpr std::uint32_t kShardMagic = 0x53445948;   // "HYDS"
constexpr std::uint32_t kRecordMagic = 0x52445948;  // "HYDR"
constexpr std::uint16_t kStoreFormatVersion = 1;
constexpr std::size_t kShardHeaderBytes = 12;
constexpr std::size_t kRecordHeaderBytes = 16;

std::uint32_t load_u32(const std::uint8_t* p) {
  return p[0] | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

void store_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

struct ParsedRecord {
  std::vector<std::uint8_t> key;
  const std::uint8_t* payload = nullptr;  // into the scanned buffer
  std::uint32_t payload_size = 0;
  std::uint32_t generation = 0;
};

std::size_t record_disk_size(std::size_t key_size, std::size_t payload_size) {
  return kRecordHeaderBytes + key_size + payload_size;
}

/// Scans a shard image. Returns false when the header itself is missing,
/// stale, or for the wrong slot (the whole shard is then treated as empty);
/// \p *torn is set when a malformed record cut the scan short.
bool parse_shard(const std::uint8_t* data, std::size_t size,
                 std::size_t shard_index, std::vector<ParsedRecord>* out,
                 bool* torn) {
  *torn = false;
  out->clear();
  if (size < kShardHeaderBytes) return false;
  if (load_u32(data) != kShardMagic) return false;
  const std::uint32_t version = data[4] | (std::uint32_t{data[5]} << 8);
  const std::uint32_t index = data[6] | (std::uint32_t{data[7]} << 8);
  const std::uint32_t count = load_u32(data + 8);
  if (version != kStoreFormatVersion || index != shard_index ||
      count != static_cast<std::uint32_t>(PersistentStore::kNumShards)) {
    return false;
  }
  std::size_t at = kShardHeaderBytes;
  while (at < size) {
    if (size - at < kRecordHeaderBytes) {
      *torn = true;
      break;
    }
    if (load_u32(data + at) != kRecordMagic) {
      *torn = true;
      break;
    }
    const std::uint32_t generation = load_u32(data + at + 4);
    const std::uint32_t key_size = load_u32(data + at + 8);
    const std::uint32_t payload_size = load_u32(data + at + 12);
    if (size - at - kRecordHeaderBytes <
        std::uint64_t{key_size} + payload_size) {
      *torn = true;
      break;
    }
    ParsedRecord record;
    record.key.assign(data + at + kRecordHeaderBytes,
                      data + at + kRecordHeaderBytes + key_size);
    record.payload = data + at + kRecordHeaderBytes + key_size;
    record.payload_size = payload_size;
    record.generation = generation;
    out->push_back(std::move(record));
    at += record_disk_size(key_size, payload_size);
  }
  return true;
}

void append_shard_header(std::vector<std::uint8_t>& out,
                         std::size_t shard_index) {
  store_u32(out, kShardMagic);
  out.push_back(static_cast<std::uint8_t>(kStoreFormatVersion));
  out.push_back(static_cast<std::uint8_t>(kStoreFormatVersion >> 8));
  out.push_back(static_cast<std::uint8_t>(shard_index));
  out.push_back(static_cast<std::uint8_t>(shard_index >> 8));
  store_u32(out, static_cast<std::uint32_t>(PersistentStore::kNumShards));
}

void append_record(std::vector<std::uint8_t>& out,
                   const std::vector<std::uint8_t>& key,
                   const std::uint8_t* payload, std::uint32_t payload_size,
                   std::uint32_t generation) {
  store_u32(out, kRecordMagic);
  store_u32(out, generation);
  store_u32(out, static_cast<std::uint32_t>(key.size()));
  store_u32(out, payload_size);
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), payload, payload + payload_size);
}

bool read_whole_file(const std::string& path, std::vector<std::uint8_t>* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return true;  // absent file == empty shard
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out->size()) {
    const ssize_t n =
        ::read(fd, out->data() + got, out->size() - got);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

bool write_file_synced(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    put += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

void sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);  // rename durability; failure only weakens crash safety
    ::close(fd);
  }
}

/// Key bytes for a blob record: a tag no serialized NPN key can start with
/// (its first field is a u32 truth-table variable count, far below 2^32-1),
/// then the artifact kind and fingerprint, then the caller's name bytes.
/// Embedding the fingerprint keeps option mismatches clean misses, mirroring
/// the options_fingerprint field inside serialized NPN keys.
std::vector<std::uint8_t> blob_key_bytes(ArtifactKind kind,
                                         const std::vector<std::uint8_t>& name,
                                         std::uint64_t fingerprint) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 2 + 8 + name.size());
  out.insert(out.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  const std::uint16_t kind_value = static_cast<std::uint16_t>(kind);
  out.push_back(static_cast<std::uint8_t>(kind_value));
  out.push_back(static_cast<std::uint8_t>(kind_value >> 8));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(fingerprint >> (8 * i)));
  }
  out.insert(out.end(), name.begin(), name.end());
  return out;
}

}  // namespace

/// One shard's in-memory view: a read-only mmap of the shard file plus an
/// index over it, and the pending (not yet flushed) artifacts.
struct PersistentStore::Shard {
  std::string path;
  std::uint8_t* map_base = nullptr;
  std::size_t map_size = 0;

  struct Entry {
    const std::uint8_t* payload = nullptr;  // into the mmap or pending blob
    std::uint32_t payload_size = 0;
    std::uint32_t generation = 0;
    bool touched = false;  ///< read or written this session (LRU stamp)
    bool pending = false;  ///< lives in `pending`, not yet on disk
  };

  // std::map keeps lookups deterministic to iterate for flush/eviction and
  // writes records in canonical key order.
  std::map<std::vector<std::uint8_t>, Entry> index;
  std::map<std::vector<std::uint8_t>, std::vector<std::uint8_t>> pending;

  void unmap() {
    if (map_base != nullptr) {
      ::munmap(map_base, map_size);
      map_base = nullptr;
      map_size = 0;
    }
  }
};

PersistentStore::PersistentStore(StoreOptions options)
    : options_(std::move(options)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (options_.readonly) {
    // A missing directory is a valid empty read-only store.
    ok_ = true;
  } else {
    fs::create_directories(options_.dir, ec);
    ok_ = !ec || fs::is_directory(options_.dir, ec);
  }
  if (ok_) open_all();
}

PersistentStore::~PersistentStore() {
  flush();  // best-effort; a failed commit only loses this session's appends
  std::lock_guard<std::mutex> guard(mutex_);
  close_all();
}

std::size_t PersistentStore::shard_of(
    const std::vector<std::uint8_t>& key_bytes) const {
  return fnv1a_bytes(key_bytes.data(), key_bytes.size()) %
         static_cast<std::uint64_t>(kNumShards);
}

void PersistentStore::open_all() {
  shards_.clear();
  shards_.resize(kNumShards);
  std::uint32_t max_generation = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].path =
        options_.dir + "/shard-" + std::to_string(i) + ".bin";
    if (reload_shard(i)) {
      for (const auto& [key, entry] : shards_[i].index) {
        max_generation = std::max(max_generation, entry.generation);
      }
    }
  }
  generation_ = max_generation + 1;
}

void PersistentStore::close_all() {
  for (Shard& shard : shards_) shard.unmap();
  shards_.clear();
}

bool PersistentStore::reload_shard(std::size_t index) {
  Shard& shard = shards_[index];
  shard.unmap();
  shard.index.clear();
  shard.pending.clear();

  const int fd = ::open(shard.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return true;  // absent == empty
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return true;
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return false;
  shard.map_base = static_cast<std::uint8_t*>(base);
  shard.map_size = static_cast<std::size_t>(st.st_size);

  std::vector<ParsedRecord> records;
  bool torn = false;
  if (!parse_shard(shard.map_base, shard.map_size, index, &records, &torn)) {
    // Stale format version or foreign layout: treat as empty; the next
    // flush rewrites the shard in the current format.
    ++counters_.corrupt_records;
    return true;
  }
  if (torn) ++counters_.corrupt_records;
  for (ParsedRecord& record : records) {
    Shard::Entry entry;
    entry.payload = record.payload;
    entry.payload_size = record.payload_size;
    entry.generation = record.generation;
    shard.index.insert_or_assign(std::move(record.key), entry);
  }
  return true;
}

void PersistentStore::lookup_record(
    const std::vector<std::uint8_t>& key_bytes, ArtifactKind kind,
    std::uint64_t fingerprint,
    const std::function<bool(std::vector<std::uint8_t>)>& accept) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!ok_) {
    ++counters_.disk_misses;
    return;
  }
  Shard& shard = shards_[shard_of(key_bytes)];
  const auto it = shard.index.find(key_bytes);
  if (it == shard.index.end()) {
    ++counters_.disk_misses;
    return;
  }
  auto payload = decode_artifact(it->second.payload, it->second.payload_size,
                                 kind, fingerprint, key_bytes);
  if (!payload || !accept(std::move(*payload))) {
    // Validation failed: drop the record so it cannot be consulted again
    // and report a miss — the caller recomputes from scratch, and its re-put
    // replaces the damaged copy at the next flush.
    ++counters_.corrupt_records;
    ++counters_.disk_misses;
    shard.pending.erase(key_bytes);
    shard.index.erase(it);
    return;
  }
  ++counters_.disk_hits;
  if (kind == ArtifactKind::kBatchJobOutcome) ++counters_.job_hits;
  counters_.bytes_read += it->second.payload_size;
  it->second.touched = true;
  it->second.generation = generation_;
}

void PersistentStore::put_record(const std::vector<std::uint8_t>& key_bytes,
                                 ArtifactKind kind, std::uint64_t fingerprint,
                                 const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!ok_ || options_.readonly) return;
  Shard& shard = shards_[shard_of(key_bytes)];
  if (shard.index.find(key_bytes) != shard.index.end()) return;
  ++counters_.appends;
  if (kind == ArtifactKind::kBatchJobOutcome) ++counters_.job_appends;

  std::vector<std::uint8_t>& artifact = shard.pending[key_bytes];
  artifact = encode_artifact(payload, kind, fingerprint, key_bytes);
  Shard::Entry entry;
  entry.payload = artifact.data();
  entry.payload_size = static_cast<std::uint32_t>(artifact.size());
  entry.generation = generation_;
  entry.touched = true;
  entry.pending = true;
  shard.index.insert_or_assign(key_bytes, entry);
}

std::optional<core::CachedDecomposition> PersistentStore::lookup(
    const core::NpnCacheKey& key) {
  std::optional<core::CachedDecomposition> entry;
  lookup_record(serialize_key(key), ArtifactKind::kDecompositionTemplate,
                key.options_fingerprint,
                [&entry](std::vector<std::uint8_t> payload) {
                  entry = deserialize_template(payload.data(), payload.size());
                  return entry.has_value();
                });
  return entry;
}

void PersistentStore::put(const core::NpnCacheKey& key,
                          const core::CachedDecomposition& value) {
  put_record(serialize_key(key), ArtifactKind::kDecompositionTemplate,
             key.options_fingerprint, serialize_template(value));
}

std::optional<std::vector<std::uint8_t>> PersistentStore::lookup_blob(
    ArtifactKind kind, const std::vector<std::uint8_t>& name,
    std::uint64_t fingerprint) {
  std::optional<std::vector<std::uint8_t>> blob;
  lookup_record(blob_key_bytes(kind, name, fingerprint), kind, fingerprint,
                [&blob](std::vector<std::uint8_t> payload) {
                  blob = std::move(payload);
                  return true;
                });
  return blob;
}

void PersistentStore::put_blob(ArtifactKind kind,
                               const std::vector<std::uint8_t>& name,
                               std::uint64_t fingerprint,
                               const std::vector<std::uint8_t>& raw) {
  put_record(blob_key_bytes(kind, name, fingerprint), kind, fingerprint, raw);
}

bool PersistentStore::flush() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!ok_ || options_.readonly) return true;
  bool dirty = false;
  for (const Shard& shard : shards_) {
    if (!shard.pending.empty()) dirty = true;
    if (options_.max_bytes > 0) {
      for (const auto& [key, entry] : shard.index) {
        if (entry.touched) dirty = true;
      }
    }
  }
  if (!dirty) return true;

  // Cross-process commit section.
  const std::string lock_path = options_.dir + "/store.lock";
  const int lock_fd =
      ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd < 0) return false;
  if (::flock(lock_fd, LOCK_EX) != 0) {
    ::close(lock_fd);
    return false;
  }

  // Merge view per shard: freshest on-disk state overlaid with this
  // session's touches and appends. Owned byte copies — the mmap may be
  // stale relative to the re-read and is replaced afterwards.
  struct MergedRecord {
    std::uint32_t generation = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<std::map<std::vector<std::uint8_t>, MergedRecord>> merged(
      shards_.size());
  std::vector<std::vector<std::uint8_t>> disk_images(shards_.size());
  std::uint32_t max_generation = generation_;
  bool failed = false;

  for (std::size_t i = 0; i < shards_.size() && !failed; ++i) {
    if (!read_whole_file(shards_[i].path, &disk_images[i])) {
      failed = true;
      break;
    }
    std::vector<ParsedRecord> records;
    bool torn = false;
    if (parse_shard(disk_images[i].data(), disk_images[i].size(), i, &records,
                    &torn)) {
      for (ParsedRecord& record : records) {
        max_generation = std::max(max_generation, record.generation);
        merged[i].insert_or_assign(
            std::move(record.key),
            MergedRecord{record.generation,
                         {record.payload, record.payload + record.payload_size}});
      }
    }
    for (const auto& [key, entry] : shards_[i].index) {
      if (entry.pending) {
        // Pending bytes replace any disk copy. A valid copy another process
        // committed first is bit-identical by the determinism contract; a
        // corrupt or stale one is exactly what this re-put heals.
        MergedRecord& record = merged[i][key];
        record.generation = std::max(record.generation, generation_);
        record.payload.assign(entry.payload,
                              entry.payload + entry.payload_size);
        continue;
      }
      // LRU stamp for a record read this session. If another process
      // evicted it meanwhile, let it stay gone — resurrecting would fight
      // the byte budget.
      const auto it = merged[i].find(key);
      if (entry.touched && it != merged[i].end()) {
        it->second.generation = std::max(it->second.generation, generation_);
      }
    }
  }

  // LRU-by-generation eviction against the byte budget, oldest first.
  if (!failed && options_.max_bytes > 0) {
    std::uint64_t total = 0;
    struct Victim {
      std::uint32_t generation;
      std::size_t shard;
      const std::vector<std::uint8_t>* key;
      std::uint64_t size;
    };
    std::vector<Victim> victims;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      total += kShardHeaderBytes;
      for (const auto& [key, record] : merged[i]) {
        const std::uint64_t size =
            record_disk_size(key.size(), record.payload.size());
        total += size;
        victims.push_back(Victim{record.generation, i, &key, size});
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) {
                if (a.generation != b.generation)
                  return a.generation < b.generation;
                if (a.shard != b.shard) return a.shard < b.shard;
                return *a.key < *b.key;
              });
    for (const Victim& victim : victims) {
      if (total <= options_.max_bytes) break;
      merged[victim.shard].erase(*victim.key);
      total -= victim.size;
      ++counters_.evictions;
    }
  }

  // Commit: serialize each shard, skip the unchanged ones, atomic-rename
  // the rest.
  if (!failed) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      std::vector<std::uint8_t> image;
      append_shard_header(image, i);
      for (const auto& [key, record] : merged[i]) {
        append_record(image, key, record.payload.data(),
                      static_cast<std::uint32_t>(record.payload.size()),
                      record.generation);
      }
      if (image == disk_images[i]) continue;
      const std::string tmp_path = shards_[i].path + ".tmp";
      if (!write_file_synced(tmp_path, image)) {
        failed = true;
        break;
      }
      std::error_code ec;
      std::filesystem::rename(tmp_path, shards_[i].path, ec);
      if (ec) {
        std::filesystem::remove(tmp_path, ec);
        failed = true;
        break;
      }
      counters_.bytes_written += image.size();
    }
    if (!failed) sync_directory(options_.dir);
  }

  ::flock(lock_fd, LOCK_UN);
  ::close(lock_fd);
  if (failed) return false;

  // Swap the stale mmaps for the committed state (which also picks up
  // records other processes appended since open) and clear pending.
  for (std::size_t i = 0; i < shards_.size(); ++i) reload_shard(i);
  generation_ = max_generation + 1;
  return true;
}

StoreCounters PersistentStore::counters() const {
  std::lock_guard<std::mutex> guard(mutex_);
  StoreCounters snapshot = counters_;
  snapshot.records = 0;
  for (const Shard& shard : shards_) snapshot.records += shard.index.size();
  return snapshot;
}

std::shared_ptr<const core::CachedDecomposition> TieredCache::lookup(
    const core::NpnCacheKey& key) {
  return lookup_tiered(key, nullptr);
}

std::shared_ptr<const core::CachedDecomposition> TieredCache::lookup_tiered(
    const core::NpnCacheKey& key, core::LookupTier* tier) {
  if (memory_ != nullptr) {
    if (auto entry = memory_->lookup(key)) {
      if (tier != nullptr) *tier = core::LookupTier::kMemory;
      return entry;
    }
  }
  if (disk_ != nullptr) {
    if (auto entry = disk_->lookup(key)) {
      if (tier != nullptr) *tier = core::LookupTier::kDisk;
      if (memory_ != nullptr) {
        // Promote so repeat lookups stay in memory; racing promotions are
        // bit-identical by the determinism contract.
        return memory_->insert(key, std::move(*entry));
      }
      return std::make_shared<const core::CachedDecomposition>(
          std::move(*entry));
    }
  }
  if (tier != nullptr) *tier = core::LookupTier::kMiss;
  return nullptr;
}

std::shared_ptr<const core::CachedDecomposition> TieredCache::insert(
    const core::NpnCacheKey& key, core::CachedDecomposition value) {
  std::shared_ptr<const core::CachedDecomposition> winner;
  if (memory_ != nullptr) {
    winner = memory_->insert(key, std::move(value));
  } else {
    winner = std::make_shared<const core::CachedDecomposition>(std::move(value));
  }
  if (disk_ != nullptr) disk_->put(key, *winner);
  return winner;
}

}  // namespace hyde::store
