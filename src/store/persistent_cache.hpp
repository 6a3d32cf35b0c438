/// \file persistent_cache.hpp
/// \brief On-disk, NPN-fingerprint-keyed decomposition cache.
///
/// `PersistentStore` persists NPN decomposition templates across processes:
/// a cache directory holds `kNumShards` shard files plus an advisory lock
/// file. Records are keyed by the *full serialized* `core::NpnCacheKey`
/// (onset, dcset, FlowOptions fingerprint) — lookups memcmp whole keys, so
/// hash collisions can never replay a wrong template — and payloads are
/// artifacts (codec.hpp) with their own version, fingerprint and checksum
/// validation; the checksum also covers the key bytes, so a damaged key
/// fails validation instead of answering for another key. Any record that
/// fails any check is treated as a cache miss and dropped: corruption
/// degrades to a cold compute, never to a wrong result or a crash.
///
/// Concurrency model:
///  - In-process: all methods are thread-safe (one internal mutex; the
///    per-flow hot path is the in-memory tier, so the disk tier sees only
///    first-touch misses).
///  - Cross-process: readers mmap the shard files and never block. Writers
///    buffer puts in memory and commit in `flush()` under an exclusive
///    `flock` on `<dir>/store.lock`: each shard is re-read from disk, the
///    pending records are merged (a pending record replaces the disk copy
///    of its key — by the determinism contract a valid copy is
///    bit-identical, and a corrupt or stale one is healed by the re-put),
///    and the shard is rewritten to a temp file, fsynced, and atomically
///    renamed into place. A reader holding the old mmap keeps a consistent
///    (merely stale) view because the rename only unlinks the name.
///
/// Eviction is LRU-by-generation: every record carries a u32 generation;
/// each store session stamps records it reads or writes with a generation
/// newer than any it observed at open, and when `max_bytes` is exceeded at
/// flush time the oldest-generation records are dropped first.
///
/// `TieredCache` composes the in-memory tier (any thread-safe
/// `core::DecompCache`, in practice `runtime::NpnResultCache`) in front of
/// a `PersistentStore`: lookups fall through memory → disk (with promotion
/// back into memory), inserts write through to both.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/decomp_cache.hpp"
#include "store/codec.hpp"

namespace hyde::store {

/// Store configuration, surfaced as `hyde_cli --cache-dir/--cache-readonly/
/// --cache-max-bytes` and `BatchOptions::cache_*`.
struct StoreOptions {
  std::string dir;          ///< cache directory (created when not readonly)
  bool readonly = false;    ///< lookups only; puts and flushes are no-ops
  std::uint64_t max_bytes = 0;  ///< on-disk budget at flush; 0 = unlimited
};

/// Counter snapshot for the `store` report section.
struct StoreCounters {
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t bytes_read = 0;     ///< artifact bytes decoded on hits
  std::uint64_t bytes_written = 0;  ///< shard bytes committed by flushes
  std::uint64_t evictions = 0;        ///< records dropped by the byte budget
  std::uint64_t corrupt_records = 0;  ///< records rejected by validation
  std::uint64_t appends = 0;          ///< new records buffered this session
  std::uint64_t records = 0;          ///< records visible in the open shards
  std::uint64_t job_hits = 0;         ///< whole-job outcome replays served
  std::uint64_t job_appends = 0;      ///< whole-job outcomes buffered
};

/// Sharded on-disk template store. See the file comment for the format and
/// concurrency model. All methods are thread-safe.
class PersistentStore {
 public:
  static constexpr int kNumShards = 8;

  explicit PersistentStore(StoreOptions options);
  ~PersistentStore();  ///< flushes pending writes (best-effort), then unmaps

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// False when the cache directory could not be created or opened; the
  /// store then behaves as an always-miss, drop-writes sink.
  bool ok() const { return ok_; }

  const StoreOptions& options() const { return options_; }

  /// Decodes and returns the template stored under \p key, or nullopt.
  /// Invalid records (bad header, checksum, fingerprint, truncation) count
  /// as misses and are dropped from the in-memory view.
  std::optional<core::CachedDecomposition> lookup(const core::NpnCacheKey& key);

  /// Buffers \p value for the next flush. No-op when readonly, disabled, or
  /// the key is already present (the determinism contract makes re-puts
  /// redundant). A key whose record failed validation this session is absent
  /// again, so its re-put replaces the damaged copy at the next flush.
  void put(const core::NpnCacheKey& key, const core::CachedDecomposition& value);

  /// Generic raw-blob records sharing the shard files with template records.
  /// A blob is addressed by (\p kind, \p name, \p fingerprint); the store
  /// prefixes the key bytes with a tag no serialized NPN key can start with,
  /// so the namespaces can never collide, and the fingerprint is part of the
  /// key — a run under different options misses cleanly instead of tripping
  /// the decode-side fingerprint cross-check. Validation failures count as
  /// corrupt and degrade to a miss, exactly like template records. The batch
  /// runner uses this as its whole-job replay tier (ArtifactKind::
  /// kBatchJobOutcome).
  std::optional<std::vector<std::uint8_t>> lookup_blob(
      ArtifactKind kind, const std::vector<std::uint8_t>& name,
      std::uint64_t fingerprint);

  /// Blob counterpart of put: buffers \p raw for the next flush under the
  /// (\p kind, \p name, \p fingerprint) key.
  void put_blob(ArtifactKind kind, const std::vector<std::uint8_t>& name,
                std::uint64_t fingerprint, const std::vector<std::uint8_t>& raw);

  /// Commits buffered puts and generation updates to disk under the
  /// cross-process lock, applying the byte budget. Returns false when the
  /// commit failed (the store keeps its pending state for a later retry).
  /// No-op (true) when readonly or nothing changed.
  bool flush();

  StoreCounters counters() const;

 private:
  struct Shard;

  std::size_t shard_of(const std::vector<std::uint8_t>& key_bytes) const;

  /// The record path behind lookup and lookup_blob: finds \p key_bytes,
  /// decodes its artifact and hands the payload to \p accept. A record that
  /// fails decoding or \p accept counts as corrupt and is dropped; either way
  /// the lookup counts as a miss.
  void lookup_record(
      const std::vector<std::uint8_t>& key_bytes, ArtifactKind kind,
      std::uint64_t fingerprint,
      const std::function<bool(std::vector<std::uint8_t>)>& accept);

  /// The record path behind put and put_blob.
  void put_record(const std::vector<std::uint8_t>& key_bytes,
                  ArtifactKind kind, std::uint64_t fingerprint,
                  const std::vector<std::uint8_t>& payload);

  void open_all();
  void close_all();
  bool reload_shard(std::size_t index);

  StoreOptions options_;
  bool ok_ = false;
  std::uint32_t generation_ = 1;  ///< stamp for records touched this session

  mutable std::mutex mutex_;
  std::vector<Shard> shards_;
  StoreCounters counters_;
};

/// Two-level cache: a thread-safe in-memory tier in front of a
/// `PersistentStore`. Both pointers are non-owning and must outlive the
/// tiered view; `disk` may be null (pure pass-through) and either tier may
/// be shared by several flows.
class TieredCache final : public core::DecompCache {
 public:
  TieredCache(core::DecompCache* memory, PersistentStore* disk)
      : memory_(memory), disk_(disk) {}

  std::shared_ptr<const core::CachedDecomposition> lookup(
      const core::NpnCacheKey& key) override;

  std::shared_ptr<const core::CachedDecomposition> lookup_tiered(
      const core::NpnCacheKey& key, core::LookupTier* tier) override;

  std::shared_ptr<const core::CachedDecomposition> insert(
      const core::NpnCacheKey& key, core::CachedDecomposition value) override;

  bool has_persistent_tier() const override { return disk_ != nullptr; }

 private:
  core::DecompCache* memory_;
  PersistentStore* disk_;
};

}  // namespace hyde::store
