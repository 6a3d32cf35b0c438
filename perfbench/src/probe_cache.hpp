/// \file probe_cache.hpp
/// \brief A core::DecompCache decorator that counts and times the calls it
/// forwards, for the traced run.
///
/// Results pass through unchanged, so a flow sees the same entries as with
/// the decorated cache alone. Counters live in per-thread slots (no shared
/// write on the hot path) and are summed by totals() once the flows are done.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decomp_cache.hpp"
#include "trace.hpp"

namespace perfbench {

struct ProbeTotals {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t fills = 0;       ///< inserts matched to a miss on their thread
  double call_seconds = 0.0;     ///< inside the decorated lookup and insert
  double fill_seconds = 0.0;     ///< from each miss to the insert that fills it
  std::vector<hyde::core::NpnCacheKey> keys;  ///< every key looked up
};

class ProbeCache final : public hyde::core::DecompCache {
 public:
  /// \p lookup_span and \p insert_span name the spans around forwarded calls
  /// (string literals). With \p keep_keys every looked-up key is recorded.
  ProbeCache(hyde::core::DecompCache* inner, const char* lookup_span,
             const char* insert_span, bool keep_keys)
      : inner_(inner),
        lookup_span_(lookup_span),
        insert_span_(insert_span),
        keep_keys_(keep_keys) {}

  std::shared_ptr<const hyde::core::CachedDecomposition> lookup(
      const hyde::core::NpnCacheKey& key) override {
    return lookup_tiered(key, nullptr);
  }

  std::shared_ptr<const hyde::core::CachedDecomposition> lookup_tiered(
      const hyde::core::NpnCacheKey& key,
      hyde::core::LookupTier* tier) override {
    Local& local = locals_.local();
    const auto start = Clock::now();
    std::shared_ptr<const hyde::core::CachedDecomposition> entry;
    {
      ScopedSpan span(lookup_span_);
      entry = inner_->lookup_tiered(key, tier);
    }
    const auto stop = Clock::now();
    local.totals.lookups += 1;
    local.totals.call_seconds += seconds(start, stop);
    if (entry) {
      local.totals.hits += 1;
    } else {
      local.pending.push_back(Pending{key.hash(), stop});
    }
    if (keep_keys_) local.totals.keys.push_back(key);
    return entry;
  }

  std::shared_ptr<const hyde::core::CachedDecomposition> insert(
      const hyde::core::NpnCacheKey& key,
      hyde::core::CachedDecomposition value) override {
    Local& local = locals_.local();
    const auto start = Clock::now();
    for (auto it = local.pending.rbegin(); it != local.pending.rend(); ++it) {
      if (it->hash == key.hash()) {
        local.totals.fills += 1;
        local.totals.fill_seconds += seconds(it->missed, start);
        local.pending.erase(std::next(it).base());
        break;
      }
    }
    std::shared_ptr<const hyde::core::CachedDecomposition> entry;
    {
      ScopedSpan span(insert_span_);
      entry = inner_->insert(key, std::move(value));
    }
    local.totals.inserts += 1;
    local.totals.call_seconds += seconds(start, Clock::now());
    return entry;
  }

  bool has_persistent_tier() const override {
    return inner_->has_persistent_tier();
  }

  /// Sums every thread's counters. Call once no flow uses the cache.
  ProbeTotals totals() const {
    ProbeTotals sum;
    locals_.for_each([&sum](const Local& local) {
      sum.lookups += local.totals.lookups;
      sum.hits += local.totals.hits;
      sum.inserts += local.totals.inserts;
      sum.fills += local.totals.fills;
      sum.call_seconds += local.totals.call_seconds;
      sum.fill_seconds += local.totals.fill_seconds;
      sum.keys.insert(sum.keys.end(), local.totals.keys.begin(),
                      local.totals.keys.end());
    });
    return sum;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    std::uint64_t hash = 0;
    Clock::time_point missed;
  };
  struct Local {
    ProbeTotals totals;
    std::vector<Pending> pending;  ///< misses not yet filled, innermost last
  };
  static double seconds(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

  hyde::core::DecompCache* inner_;
  const char* lookup_span_;
  const char* insert_span_;
  bool keep_keys_;
  PerThread<Local> locals_;
};

}  // namespace perfbench
