#include "obs/span.h"

#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace sablock::obs {

TraceId NextTraceId() {
  static std::atomic<TraceId> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

Tracer& Tracer::Global() {
  // Leaked like MetricsRegistry::Global(): spans may record during
  // static destruction of unrelated objects.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
    return;
  }
  ring_[start_] = std::move(span);
  start_ = (start_ + 1) % capacity_;
  ++dropped_;
}

std::vector<SpanRecord> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanRecord> Tracer::ForTrace(TraceId trace) const {
  std::vector<SpanRecord> out;
  for (SpanRecord& span : Recent()) {
    if (span.trace == trace) out.push_back(std::move(span));
  }
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

ObsSpan::ObsSpan(std::string_view name, TraceId trace, Tracer* tracer)
    : name_(name),
      trace_(trace),
      tracer_(tracer),
      start_(std::chrono::steady_clock::now()),
      resumed_(start_) {}

double ObsSpan::Elapsed() const {
  std::chrono::steady_clock::duration active = active_;
  if (running_) active += std::chrono::steady_clock::now() - resumed_;
  return std::chrono::duration<double>(active).count();
}

void ObsSpan::Pause() {
  if (!running_) return;
  active_ += std::chrono::steady_clock::now() - resumed_;
  running_ = false;
}

void ObsSpan::Resume() {
  if (running_) return;
  resumed_ = std::chrono::steady_clock::now();
  running_ = true;
}

ObsSpan::~ObsSpan() {
  const double seconds = Elapsed();
  SpanRecord record;
  record.name = std::string(name_);
  record.trace = trace_;
  record.start_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          start_.time_since_epoch())
          .count());
  record.duration_us = seconds * 1e6;
  if (tracer_ != nullptr) tracer_->Record(std::move(record));
  // The per-name latency series; resolving through the registry mutex is
  // fine at span granularity (requests, builds — not per-record loops).
  MetricsRegistry::Global()
      .GetHistogram("span_seconds", "trace span durations by span name",
                    Histogram::LatencyBuckets(), "span", std::string(name_))
      ->Observe(seconds);
}

}  // namespace sablock::obs
