#ifndef SABLOCK_OBS_SPAN_H_
#define SABLOCK_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sablock::obs {

/// Per-request trace correlation id. 0 means "untraced"; ids are
/// process-unique, minted by NextTraceId() at the edge (the candidate
/// client stamps one on every request, pipeline runs mint one per run)
/// and threaded through the wire protocol / stage chain so every span a
/// request touches shares its id.
using TraceId = uint64_t;

/// Mints a fresh non-zero trace id (monotonic counter, relaxed atomics —
/// uniqueness within the process is all correlation needs).
TraceId NextTraceId();

/// One finished span: what ran, under which trace, when (microseconds on
/// the process monotonic clock) and for how long.
struct SpanRecord {
  std::string name;
  TraceId trace = 0;
  uint64_t start_us = 0;     ///< steady-clock microseconds
  double duration_us = 0.0;
};

/// Bounded in-memory span store: a drop-oldest ring so a long-lived
/// server keeps the most recent window of spans at fixed memory. Spans
/// land here when an ObsSpan destructs; ForTrace() reassembles one
/// request's timeline for debugging/tests.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 2048);

  /// The process-wide tracer every ObsSpan records into by default.
  static Tracer& Global();

  void Record(SpanRecord span);

  /// Most-recent-last copy of the retained spans.
  std::vector<SpanRecord> Recent() const;

  /// The retained spans of one trace, in recording order.
  std::vector<SpanRecord> ForTrace(TraceId trace) const;

  /// Spans evicted because the ring was full.
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // ring_[(start_ + i) % capacity_]
  size_t start_ = 0;
  uint64_t dropped_ = 0;
};

/// Scoped RAII trace span on the monotonic clock. Construction stamps
/// the start; destruction records a SpanRecord into the tracer and
/// observes the duration into the registry's `span_seconds{span=<name>}`
/// histogram, so every span name doubles as a latency series for free.
///
/// `name` must outlive the span (string literals in practice — span
/// names are code locations, not data).
///
/// Pause()/Resume() let one span time a phase that is interleaved with
/// another (e.g. per-table band keys and grouping inside one LSH Run):
/// the recorded duration is the active time only, and the record keeps
/// the first start.
class ObsSpan {
 public:
  explicit ObsSpan(std::string_view name, TraceId trace = 0,
                   Tracer* tracer = &Tracer::Global());
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  TraceId trace() const { return trace_; }

  /// Seconds the span has been active so far (paused time excluded).
  double Elapsed() const;

  /// Stops the clock; no-op when already paused.
  void Pause();
  /// Restarts the clock; no-op when running.
  void Resume();

 private:
  std::string_view name_;
  TraceId trace_;
  Tracer* tracer_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point resumed_;
  std::chrono::steady_clock::duration active_{};  // before resumed_
  bool running_ = true;
};

}  // namespace sablock::obs

#endif  // SABLOCK_OBS_SPAN_H_
