// Low-overhead tracing: RAII scoped spans emitting Chrome-trace-format JSON.
//
// The recorder collects begin/end/instant events into per-thread buffers
// (one uncontended mutex per thread, taken only while tracing is enabled)
// and serializes them as a `chrome://tracing` / Perfetto-loadable JSON
// document. Design constraints, in order:
//
//   1. Near-zero cost when disabled: a disabled recorder costs one relaxed
//      atomic load per span.
//   2. No allocation per event. Event names are `const char*` string
//      literals; an event is 24 bytes appended to a per-thread vector.
//   3. Thread-safe. Campaign workers trace concurrently; buffers are
//      per-thread and only merged at WriteChromeTrace() time.
//
// Span timestamps come from a monotonic wall clock, so traces measure real
// elapsed time and are NOT deterministic across runs — deterministic test
// oracles belong in the metrics registry (telemetry/metrics_registry.h),
// not here. See DESIGN.md §10 for the span taxonomy and how to open a
// trace in Perfetto.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace uavres::telemetry {

/// One trace event. `name` must point at storage outliving the recorder —
/// in practice a string literal at the instrumentation site.
struct TraceEvent {
  const char* name;
  char phase;            ///< 'B' begin, 'E' end, 'i' instant
  std::uint64_t ts_us;   ///< microseconds since Enable()
};

/// Process-wide trace collector. All methods are thread-safe; call
/// WriteChromeTrace() only after instrumented threads have quiesced
/// (joined), as the CLI does after Campaign::Run returns.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Starts collecting; resets the trace epoch. Idempotent.
  void Enable();
  /// Stops collecting (already-buffered events are kept).
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all buffered events (tests). Thread buffers stay registered so
  /// cached thread-local pointers remain valid.
  void Clear();

  /// Appends an event for the calling thread at the current time.
  void Emit(const char* name, char phase);

  /// Total buffered events across all threads.
  std::size_t EventCount() const;

  /// Serializes the Chrome trace-event JSON document ("traceEvents" array
  /// of B/E/i events with stable small integer tids).
  void WriteChromeTrace(std::ostream& os) const;

 private:
  struct ThreadLog {
    std::uint32_t tid;
    mutable std::mutex mutex;  ///< owner appends, WriteChromeTrace reads
    std::vector<TraceEvent> events;
  };

  TraceRecorder() = default;
  ThreadLog& LocalLog();
  std::uint64_t NowUs() const;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mutex_;  ///< guards logs_ (registration + serialization)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span: emits a 'B' event on construction and the matching 'E' on
/// destruction. Constructing while the recorder is disabled is free apart
/// from one atomic load, and such a span stays inert even if tracing is
/// enabled before it closes (no unbalanced 'E').
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    auto& rec = TraceRecorder::Global();
    if (rec.enabled()) {
      name_ = name;
      rec.Emit(name, 'B');
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) TraceRecorder::Global().Emit(name_, 'E');
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_{nullptr};
};

}  // namespace uavres::telemetry

#define UAVRES_TRACE_CONCAT_INNER(a, b) a##b
#define UAVRES_TRACE_CONCAT(a, b) UAVRES_TRACE_CONCAT_INNER(a, b)

/// Scoped span covering the rest of the enclosing block. `name` must be a
/// string literal (events store the pointer, not a copy).
#define UAVRES_TRACE_SCOPE(name) \
  ::uavres::telemetry::TraceSpan UAVRES_TRACE_CONCAT(uavres_trace_span_, __LINE__)(name)
/// Zero-duration instant event (thread-scoped).
#define UAVRES_TRACE_INSTANT(name)                                   \
  do {                                                               \
    auto& uavres_trace_rec_ = ::uavres::telemetry::TraceRecorder::Global(); \
    if (uavres_trace_rec_.enabled()) uavres_trace_rec_.Emit(name, 'i');     \
  } while (0)
