#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};

}  // namespace

std::string Span::module() const {
  const std::string full = name;
  return full.substr(0, full.find('.'));
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  g_active.store(this);
}

Tracer::~Tracer() { g_active.store(nullptr); }

Tracer* Tracer::active() { return g_active.load(); }

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  buffers_.for_each([&out](const Buffer& buffer) {
    const int base = static_cast<int>(out.size());
    for (Span span : buffer.spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(span);
    }
  });
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& span : spans()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%d}}",
                 first ? "" : ",", span.name, span.module().c_str(),
                 span.thread, static_cast<double>(span.start) * 1e-3,
                 static_cast<double>(span.end - span.start) * 1e-3, span.job);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int job) : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  int thread = 0;
  Tracer::Buffer& buffer = tracer_->buffers_.local(&thread);
  Span span;
  span.name = name;
  span.thread = thread;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  span.job = job;
  if (span.job < 0 && span.parent >= 0) {
    span.job = buffer.spans[static_cast<std::size_t>(span.parent)].job;
  }
  span.start = tracer_->now();
  buffer.open.push_back(static_cast<int>(buffer.spans.size()));
  buffer.spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now();
  Tracer::Buffer& buffer = tracer_->buffers_.local();
  buffer.spans[static_cast<std::size_t>(buffer.open.back())].end = end;
  buffer.open.pop_back();
}

}  // namespace perfbench
