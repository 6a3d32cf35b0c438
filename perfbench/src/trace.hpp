/// \file trace.hpp
/// \brief Scoped spans for the traced benchmark run.
///
/// Each thread appends spans to its own buffer; the only lock is taken once
/// per thread, when its buffer is registered. Spans nest per thread through
/// a parent index, so a span's self time is its duration minus the time its
/// children cover. Buffers are read back only after every traced thread has
/// stopped (Tracer::spans), then written as Chrome trace-event JSON and rolled
/// up into self time per module.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One T per thread that touches it. A thread takes the lock once, when it
/// first calls local(); later calls are lock-free. Read the values with
/// for_each only once the threads that write them are idle.
template <typename T>
class PerThread {
 public:
  PerThread() : id_(next_id()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  /// The calling thread's value; \p index, when given, receives its
  /// registration order.
  T& local(int* index = nullptr) {
    thread_local std::vector<Slot> slots;
    for (const Slot& slot : slots) {
      if (slot.owner == id_) {
        if (index != nullptr) *index = slot.index;
        return *slot.value;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(std::make_unique<T>());
    const int at = static_cast<int>(values_.size()) - 1;
    slots.push_back(Slot{id_, at, values_.back().get()});
    if (index != nullptr) *index = at;
    return *values_.back();
  }

  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& value : values_) f(*value);
  }

 private:
  struct Slot {
    std::uint64_t owner = 0;
    int index = 0;
    T* value = nullptr;
  };
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1) + 1;
  }

  const std::uint64_t id_;  ///< never reused, so stale slots cannot match
  mutable std::mutex mu_;   ///< guards values_
  std::vector<std::unique_ptr<T>> values_;
};

/// One closed span. Times are nanoseconds since the tracer's epoch.
struct Span {
  const char* name = "";    ///< "<module>.<call>", a string literal
  std::int64_t start = 0;
  std::int64_t end = 0;
  int thread = 0;           ///< registration order of the recording thread
  int parent = -1;          ///< index of the enclosing span, same thread
  int job = -1;             ///< job the span belongs to (-1: none)

  double seconds() const { return static_cast<double>(end - start) * 1e-9; }
  /// Text before the first '.', e.g. "net" for "net.verify".
  std::string module() const;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer spans are recorded into, or null when tracing is off.
  static Tracer* active();

  std::int64_t now() const;

  /// Every span recorded so far, in per-thread order, with parent indices
  /// rebased into the returned vector. Call only once traced threads are idle.
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON (load in chrome://tracing or
  /// Perfetto). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int> open;  ///< indices of spans not yet closed
  };

  std::chrono::steady_clock::time_point epoch_;
  PerThread<Buffer> buffers_;
};

/// Records one span on the current thread from construction to destruction;
/// does nothing while no tracer is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int job = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
};

}  // namespace perfbench
