#include "store/codec.hpp"

#include <utility>

#include "tt/truth_table.hpp"

namespace hyde::store {

namespace {

constexpr std::uint32_t kArtifactMagic = 0x43415948;  // "HYAC"

// ---------------------------------------------------------------------------
// Little-endian field writers/readers. Explicit byte assembly keeps the
// layout identical across hosts regardless of endianness or struct padding.
// ---------------------------------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Bounds-checked little-endian reader over a byte span.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool read_u16(std::uint16_t* v) {
    if (pos_ + 2 > size_) return false;
    *v = static_cast<std::uint16_t>(data_[pos_] |
                                    (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }
  bool read_u32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = data_[pos_] | (std::uint32_t{data_[pos_ + 1]} << 8) |
         (std::uint32_t{data_[pos_ + 2]} << 16) |
         (std::uint32_t{data_[pos_ + 3]} << 24);
    pos_ += 4;
    return true;
  }
  bool read_u64(std::uint64_t* v) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!read_u32(&lo) || !read_u32(&hi)) return false;
    *v = lo | (std::uint64_t{hi} << 32);
    return true;
  }
  const std::uint8_t* cursor() const { return data_ + pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void put_table(std::vector<std::uint8_t>& out, const tt::TruthTable& table) {
  put_u32(out, static_cast<std::uint32_t>(table.num_vars()));
  for (std::uint64_t word : table.words()) put_u64(out, word);
}

bool read_table(ByteReader& in, tt::TruthTable* table) {
  std::uint32_t num_vars = 0;
  if (!in.read_u32(&num_vars)) return false;
  if (num_vars > static_cast<std::uint32_t>(tt::TruthTable::kMaxVars)) {
    return false;
  }
  tt::TruthTable result(static_cast<int>(num_vars));
  const std::size_t words = result.words().size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    if (!in.read_u64(&word)) return false;
    for (int b = 0; b < 64; ++b) {
      const std::uint64_t m =
          (static_cast<std::uint64_t>(w) << 6) | static_cast<std::uint64_t>(b);
      if (m >= result.size()) break;
      if ((word >> b) & 1u) result.set_bit(m, true);
    }
  }
  *table = std::move(result);
  return true;
}

/// FNV-1a over the record key followed by the payload, so that neither can
/// be damaged without the artifact failing validation.
std::uint64_t artifact_checksum(const std::vector<std::uint8_t>& key,
                                const std::uint8_t* payload, std::size_t size) {
  return fnv1a_bytes(payload, size, fnv1a_bytes(key.data(), key.size()));
}

}  // namespace

std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::size_t size,
                          std::uint64_t hash) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::vector<std::uint8_t> serialize_template(
    const core::CachedDecomposition& entry) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(entry.num_inputs));
  put_u32(out, static_cast<std::uint32_t>(entry.nodes.size()));
  for (const core::TemplateNode& node : entry.nodes) {
    put_u32(out, static_cast<std::uint32_t>(node.fanins.size()));
    for (int fanin : node.fanins) {
      put_u32(out, static_cast<std::uint32_t>(fanin));
    }
    put_table(out, node.table);
  }
  put_u32(out, static_cast<std::uint32_t>(entry.root));
  put_u32(out, static_cast<std::uint32_t>(entry.stats.decomposition_steps));
  put_u32(out, static_cast<std::uint32_t>(entry.stats.shannon_fallbacks));
  put_u32(out, static_cast<std::uint32_t>(entry.stats.encoder_runs));
  put_u32(out, static_cast<std::uint32_t>(entry.stats.encoder_random_kept));
  return out;
}

std::optional<core::CachedDecomposition> deserialize_template(
    const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  core::CachedDecomposition entry;
  std::uint32_t num_inputs = 0;
  std::uint32_t num_nodes = 0;
  if (!in.read_u32(&num_inputs) || !in.read_u32(&num_nodes)) return {};
  // A template input count past the truth-table cap (or a node count that
  // cannot fit in the remaining bytes) marks a corrupt record.
  if (num_inputs > static_cast<std::uint32_t>(tt::TruthTable::kMaxVars)) {
    return {};
  }
  if (num_nodes > in.remaining()) return {};
  entry.num_inputs = static_cast<int>(num_inputs);
  entry.nodes.reserve(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    core::TemplateNode node;
    std::uint32_t num_fanins = 0;
    if (!in.read_u32(&num_fanins)) return {};
    if (num_fanins > in.remaining()) return {};
    node.fanins.reserve(num_fanins);
    for (std::uint32_t f = 0; f < num_fanins; ++f) {
      std::uint32_t fanin = 0;
      if (!in.read_u32(&fanin)) return {};
      // Topological order: a fanin may name a template input or any
      // *earlier* node.
      if (fanin >= num_inputs + n) return {};
      node.fanins.push_back(static_cast<int>(fanin));
    }
    if (!read_table(in, &node.table)) return {};
    if (node.table.num_vars() != static_cast<int>(num_fanins)) return {};
    entry.nodes.push_back(std::move(node));
  }
  std::uint32_t root = 0;
  if (!in.read_u32(&root)) return {};
  if (root >= num_inputs + num_nodes) return {};
  entry.root = static_cast<int>(root);
  std::uint32_t steps = 0;
  std::uint32_t shannon = 0;
  std::uint32_t encoder_runs = 0;
  std::uint32_t random_kept = 0;
  if (!in.read_u32(&steps) || !in.read_u32(&shannon) ||
      !in.read_u32(&encoder_runs) || !in.read_u32(&random_kept)) {
    return {};
  }
  entry.stats.decomposition_steps = static_cast<int>(steps);
  entry.stats.shannon_fallbacks = static_cast<int>(shannon);
  entry.stats.encoder_runs = static_cast<int>(encoder_runs);
  entry.stats.encoder_random_kept = static_cast<int>(random_kept);
  if (!in.at_end()) return {};  // trailing garbage
  return entry;
}

std::vector<std::uint8_t> serialize_key(const core::NpnCacheKey& key) {
  std::vector<std::uint8_t> out;
  put_table(out, key.on);
  put_table(out, key.dc);
  put_u64(out, key.options_fingerprint);
  return out;
}

std::vector<std::uint8_t> encode_artifact(
    const std::vector<std::uint8_t>& payload, ArtifactKind kind,
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& key) {
  std::vector<std::uint8_t> out;
  out.reserve(kArtifactHeaderBytes + payload.size());
  put_u32(out, kArtifactMagic);
  out.push_back(static_cast<std::uint8_t>(kArtifactFormatVersion));
  out.push_back(static_cast<std::uint8_t>(kArtifactFormatVersion >> 8));
  const std::uint16_t kind_value = static_cast<std::uint16_t>(kind);
  out.push_back(static_cast<std::uint8_t>(kind_value));
  out.push_back(static_cast<std::uint8_t>(kind_value >> 8));
  put_u64(out, fingerprint);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, artifact_checksum(key, payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<std::vector<std::uint8_t>> decode_artifact(
    const std::uint8_t* data, std::size_t size, ArtifactKind kind,
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& key) {
  ByteReader in(data, size);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t kind_value = 0;
  std::uint64_t stored_fingerprint = 0;
  std::uint32_t payload_size = 0;
  std::uint64_t checksum = 0;
  if (!in.read_u32(&magic) || magic != kArtifactMagic) return {};
  if (!in.read_u16(&version) || version != kArtifactFormatVersion) return {};
  if (!in.read_u16(&kind_value) ||
      kind_value != static_cast<std::uint16_t>(kind)) {
    return {};
  }
  if (!in.read_u64(&stored_fingerprint) || stored_fingerprint != fingerprint) {
    return {};
  }
  if (!in.read_u32(&payload_size) || !in.read_u64(&checksum)) return {};
  if (in.remaining() != payload_size) return {};
  const std::uint8_t* payload = in.cursor();
  if (artifact_checksum(key, payload, payload_size) != checksum) return {};
  return std::vector<std::uint8_t>(payload, payload + payload_size);
}

}  // namespace hyde::store
