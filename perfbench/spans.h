// In-memory span recorder for the traced run. Spans are recorded around the
// benchmark's calls into each layer (never inside the program), kept in
// memory while the run measures, and written out once at the end as a
// Chrome trace (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when recording is off). `parent` is
  /// the span that caused it; spans of one request share `request`.
  std::uint64_t Begin(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, request,
                      std::hash<std::thread::id>{}(std::this_thread::get_id())});
    return spans_.size();
  }

  void End(std::uint64_t id) {
    if (id == 0) return;
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = now;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : rec_(rec), id_(rec.Begin(name, parent, request)) {}
    ~Scope() { rec_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::uint64_t id_;
  };

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Writes every span as a Chrome trace "complete" event. False on IO error.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.tid % 1000000)
         << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
         << ", \"request\": " << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t parent;
    std::uint64_t request;
    std::size_t tid;
  };

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
