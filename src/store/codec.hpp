/// \file codec.hpp
/// \brief Binary serialization for cached synthesis artifacts.
///
/// Two layers:
///
///  1. a *fixed-width* serialization of a `core::CachedDecomposition` (the
///     NPN decomposition template — itself a mapped k-feasible sub-netlist:
///     topo-ordered LUT nodes with fanin lists and local truth tables) into a
///     flat byte vector of little-endian u32/u64 fields; and
///  2. an *artifact container* around those bytes: a fixed header carrying
///     the format version, the payload kind, the flow-shape fingerprint the
///     artifact was produced under and a checksum, followed by the payload
///     verbatim.
///
/// The checksum covers the record's key bytes followed by the payload, so a
/// damaged key can never make a valid payload answer for a different key.
/// Decoding is strict: any header mismatch (magic, version, kind,
/// fingerprint), size mismatch or checksum failure returns failure instead
/// of bytes — the persistent store (persistent_cache.hpp) maps every such
/// failure to a cache miss, never to a wrong result.
///
/// Everything here is deterministic: the same payload, key and fingerprint
/// always produce the identical artifact bytes, so artifacts may be compared
/// byte-wise across processes and machines.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/decomp_cache.hpp"

namespace hyde::store {

/// On-disk artifact format version; bumped on any incompatible layout
/// change. Readers reject (degrade to cold) anything else.
inline constexpr std::uint16_t kArtifactFormatVersion = 2;

/// Fixed size of the artifact container header (magic, version, kind,
/// fingerprint, payload size, checksum); the payload follows verbatim.
inline constexpr std::size_t kArtifactHeaderBytes = 4 + 2 + 2 + 8 + 4 + 8;

/// What an artifact payload contains. The tag keeps the header
/// self-describing, so different payload kinds share the container (and the
/// shard files) without sharing a key namespace.
enum class ArtifactKind : std::uint16_t {
  kDecompositionTemplate = 1,
  /// A finished batch job's deterministic outcome (area/depth/verified plus
  /// the deterministic FlowStats subset): the whole-job replay tier that
  /// makes a warm re-run of a benchmark suite near-free. Stored through the
  /// generic blob interface (PersistentStore::lookup_blob/put_blob).
  kBatchJobOutcome = 2,
};

/// FNV-1a over a byte range, continuing from \p hash (the FNV offset basis
/// by default) so that several ranges can be hashed as one; the artifact
/// checksum and the store's shard selector.
std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::size_t size,
                          std::uint64_t hash = 0xCBF29CE484222325ull);

/// Fixed-width template serialization (layer 1). Every field is a
/// little-endian u32/u64; see codec.cpp for the exact layout.
std::vector<std::uint8_t> serialize_template(
    const core::CachedDecomposition& entry);

/// Strict inverse of serialize_template: bounds-checked field by field.
/// Returns nullopt on any truncation, trailing garbage or out-of-range
/// value (fanin index past the node list, truth-table arity above the
/// tt::TruthTable cap, ...).
std::optional<core::CachedDecomposition> deserialize_template(
    const std::uint8_t* data, std::size_t size);

/// Serializes an NPN cache key (onset table, dcset table, options
/// fingerprint) to a canonical byte string. Stored verbatim in each record
/// so lookups compare full keys, never just hashes.
std::vector<std::uint8_t> serialize_key(const core::NpnCacheKey& key);

/// Wraps \p payload in a self-describing artifact (layer 2): header
/// (magic, version, \p kind, \p fingerprint, payload size, FNV-1a over
/// \p key followed by \p payload), then the payload bytes verbatim.
std::vector<std::uint8_t> encode_artifact(
    const std::vector<std::uint8_t>& payload, ArtifactKind kind,
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& key);

/// Strict inverse of encode_artifact: validates the magic, format version,
/// \p kind, \p fingerprint, payload size and the checksum over \p key and
/// the payload, then returns the payload. Any failure returns nullopt.
std::optional<std::vector<std::uint8_t>> decode_artifact(
    const std::uint8_t* data, std::size_t size, ArtifactKind kind,
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& key);

}  // namespace hyde::store
