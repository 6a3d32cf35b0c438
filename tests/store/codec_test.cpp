/// Tests for the artifact codec (src/store/codec): fixed-width template
/// serialization, artifact round-trips, and — the property the persistent
/// store leans on — *strict* decoding: every tampered, truncated or
/// mismatched input (the record key included) must come back as nullopt,
/// never as bytes and never as a crash.

#include "store/codec.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "tt/truth_table.hpp"

namespace hyde::store {
namespace {

using core::CachedDecomposition;
using core::NpnCacheKey;
using core::TemplateNode;
using tt::TruthTable;

constexpr ArtifactKind kKind = ArtifactKind::kDecompositionTemplate;

/// The record key the artifacts below are stored under; the checksum covers
/// it.
const std::vector<std::uint8_t> kKey =
    serialize_key(NpnCacheKey{TruthTable::from_bits("0110"), TruthTable(2), 1});

/// A small but representative template: three topo-ordered nodes over five
/// inputs with sparse (LUT-like) local functions.
CachedDecomposition sample_template() {
  CachedDecomposition entry;
  entry.num_inputs = 5;
  entry.nodes.push_back(TemplateNode{{0, 1, 2}, TruthTable::from_bits("10000001")});
  entry.nodes.push_back(TemplateNode{{3, 4}, TruthTable::from_bits("0110")});
  entry.nodes.push_back(TemplateNode{{5, 6}, TruthTable::from_bits("1000")});
  entry.root = 7;  // num_inputs + 2
  entry.stats.decomposition_steps = 3;
  entry.stats.shannon_fallbacks = 1;
  entry.stats.encoder_runs = 2;
  entry.stats.encoder_random_kept = 0;
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
  EXPECT_EQ(a.stats.shannon_fallbacks, b.stats.shannon_fallbacks);
  EXPECT_EQ(a.stats.encoder_runs, b.stats.encoder_runs);
  EXPECT_EQ(a.stats.encoder_random_kept, b.stats.encoder_random_kept);
}

TEST(CodecTest, Fnv1aMatchesReferenceValues) {
  // FNV-1a 64-bit reference vectors.
  EXPECT_EQ(fnv1a_bytes(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a_bytes(&a, 1), 0xaf63dc4c8601ec8cull);
}

TEST(CodecTest, TemplateRoundTripsThroughFixedWidthLayer) {
  const CachedDecomposition entry = sample_template();
  const std::vector<std::uint8_t> raw = serialize_template(entry);
  const auto back = deserialize_template(raw.data(), raw.size());
  ASSERT_TRUE(back.has_value());
  expect_equal(entry, *back);
}

TEST(CodecTest, EmptyTemplateRoundTrips) {
  CachedDecomposition entry;
  entry.num_inputs = 1;
  entry.root = 0;  // degenerate: the output is input 0 (flow rejects these,
                   // but the codec must not corrupt them)
  const std::vector<std::uint8_t> raw = serialize_template(entry);
  const auto back = deserialize_template(raw.data(), raw.size());
  ASSERT_TRUE(back.has_value());
  expect_equal(entry, *back);
}

TEST(CodecTest, DeserializeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  for (std::size_t len = 0; len < raw.size(); ++len) {
    EXPECT_FALSE(deserialize_template(raw.data(), len).has_value())
        << "prefix of " << len << " bytes must not deserialize";
  }
}

TEST(CodecTest, DeserializeRejectsTrailingGarbage) {
  std::vector<std::uint8_t> raw = serialize_template(sample_template());
  raw.push_back(0);
  EXPECT_FALSE(deserialize_template(raw.data(), raw.size()).has_value());
}

TEST(CodecTest, DeserializeRejectsNonTopologicalFanin) {
  const CachedDecomposition entry = sample_template();
  std::vector<std::uint8_t> raw = serialize_template(entry);
  // Layout ends with root + 4 stats words; root sits 20 bytes from the end.
  // Corrupting it far out of range must be caught by the range check.
  const std::size_t root_off = raw.size() - 20;
  raw[root_off] = 0xFF;
  raw[root_off + 1] = 0xFF;
  EXPECT_FALSE(deserialize_template(raw.data(), raw.size()).has_value());
}

TEST(CodecTest, SerializationIsDeterministic) {
  const CachedDecomposition entry = sample_template();
  EXPECT_EQ(serialize_template(entry), serialize_template(entry));
  const std::vector<std::uint8_t> raw = serialize_template(entry);
  EXPECT_EQ(encode_artifact(raw, kKind, 7, kKey),
            encode_artifact(raw, kKind, 7, kKey));
}

TEST(CodecTest, KeySerializationSeparatesFingerprints) {
  const TruthTable f = TruthTable::from_bits("0110");
  const NpnCacheKey a{f, TruthTable(2), 1};
  const NpnCacheKey b{f, TruthTable(2), 2};
  EXPECT_EQ(serialize_key(a), serialize_key(a));
  EXPECT_NE(serialize_key(a), serialize_key(b));
}

TEST(CodecTest, ArtifactRoundTripsAcrossPayloadShapes) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back({});                                  // empty
  payloads.push_back({42});                                // single byte
  payloads.push_back(std::vector<std::uint8_t>(300, 0));   // all zero
  std::vector<std::uint8_t> ramp(257);
  std::iota(ramp.begin(), ramp.end(), 0);                  // every byte value
  payloads.push_back(ramp);
  // Pseudo-random (deterministic LCG).
  std::vector<std::uint8_t> noise;
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    noise.push_back(static_cast<std::uint8_t>(state >> 56));
  }
  payloads.push_back(noise);

  for (const auto& raw : payloads) {
    const std::vector<std::uint8_t> artifact =
        encode_artifact(raw, kKind, 99, kKey);
    // The payload is stored verbatim behind the fixed header.
    ASSERT_EQ(artifact.size(), raw.size() + kArtifactHeaderBytes);
    const auto back =
        decode_artifact(artifact.data(), artifact.size(), kKind, 99, kKey);
    ASSERT_TRUE(back.has_value()) << "payload size " << raw.size();
    EXPECT_EQ(*back, raw);
  }
}

TEST(CodecTest, DecodeRejectsFingerprintMismatch) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  const std::vector<std::uint8_t> artifact =
      encode_artifact(raw, kKind, 1234, kKey);
  EXPECT_FALSE(
      decode_artifact(artifact.data(), artifact.size(), kKind, 4321, kKey)
          .has_value());
  // A zero fingerprint is compared like any other value.
  EXPECT_FALSE(decode_artifact(artifact.data(), artifact.size(), kKind, 0, kKey)
                   .has_value());
}

TEST(CodecTest, DecodeRejectsWrongKind) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  const std::vector<std::uint8_t> artifact =
      encode_artifact(raw, kKind, 1, kKey);
  EXPECT_FALSE(decode_artifact(artifact.data(), artifact.size(),
                               static_cast<ArtifactKind>(2), 1, kKey)
                   .has_value());
}

TEST(CodecTest, DecodeRejectsBadMagicAndStaleVersion) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  std::vector<std::uint8_t> artifact = encode_artifact(raw, kKind, 1, kKey);

  std::vector<std::uint8_t> bad_magic = artifact;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(
      decode_artifact(bad_magic.data(), bad_magic.size(), kKind, 1, kKey)
          .has_value());

  std::vector<std::uint8_t> stale = artifact;
  stale[4] = static_cast<std::uint8_t>(kArtifactFormatVersion + 1);
  EXPECT_FALSE(
      decode_artifact(stale.data(), stale.size(), kKind, 1, kKey).has_value());
}

TEST(CodecTest, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  const std::vector<std::uint8_t> artifact =
      encode_artifact(raw, kKind, 1, kKey);
  for (std::size_t len = 0; len < artifact.size(); ++len) {
    EXPECT_FALSE(
        decode_artifact(artifact.data(), len, kKind, 1, kKey).has_value())
        << "prefix of " << len << " bytes must not decode";
  }
}

TEST(CodecTest, DecodeRejectsEverySingleBitFlip) {
  const std::vector<std::uint8_t> raw = serialize_template(sample_template());
  const std::vector<std::uint8_t> artifact =
      encode_artifact(raw, kKind, 77, kKey);
  // Every bit of the artifact, then every bit of the key it is decoded
  // against: the checksum covers the key bytes followed by the payload.
  for (std::size_t byte = 0; byte < artifact.size() + kKey.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> tampered = artifact;
      std::vector<std::uint8_t> key = kKey;
      std::uint8_t& target =
          byte < artifact.size() ? tampered[byte] : key[byte - artifact.size()];
      target ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(
          decode_artifact(tampered.data(), tampered.size(), kKind, 77, key)
              .has_value())
          << "bit " << bit << " of byte " << byte << " slipped through";
    }
  }
}

}  // namespace
}  // namespace hyde::store
