// Helpers of the sablock benchmark that do not depend on the library:
// order-independent output fingerprints, sample statistics, the open-loop
// request loop and the in-memory span tracer. The benchmark's own tests
// (selftest.cc) exercise exactly this code.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ fingerprints

inline uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent multiset hash: the sum of mixed element hashes, so
/// adding the same elements in any order gives the same value, and a
/// repeated element counts once per occurrence.
struct Fingerprint {
  uint64_t sum = 0;
  uint64_t count = 0;

  void Add(uint64_t element_hash) {
    sum += Mix(element_hash ^ 0x5ab1ec0ffee5ULL);
    ++count;
  }
  bool operator==(const Fingerprint&) const = default;

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(sum));
    return buf;
  }
};

/// Hash of one block as a set of record ids, independent of the order the
/// ids were emitted in.
template <typename Ids>
uint64_t BlockHash(const Ids& ids) {
  std::vector<uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  uint64_t h = Mix(sorted.size());
  for (uint64_t id : sorted) h = Mix(h ^ id);
  return h;
}

/// Key of the unordered pair {a, b}.
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Fingerprint of a block multiset: one element per block.
template <typename Blocks>
Fingerprint BlocksFingerprint(const Blocks& blocks) {
  Fingerprint fp;
  for (const auto& block : blocks) fp.Add(BlockHash(block));
  return fp;
}

/// Fingerprint of a distinct candidate-pair set: anything with a
/// ForEach(fn(a, b)) over its unordered pairs, such as sablock's PairSet.
template <typename Pairs>
Fingerprint PairSetFingerprint(const Pairs& pairs) {
  Fingerprint fp;
  pairs.ForEach([&](uint32_t a, uint32_t b) { fp.Add(PairKey(a, b)); });
  return fp;
}

// -------------------------------------------------------------- statistics

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` (0 < p < 1), reported only when at least
/// ten samples lie strictly beyond it; a tail estimated from fewer
/// samples is noise.
inline std::optional<double> Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - index < 10) return std::nullopt;
  return v[index];
}

// -------------------------------------------------------------- open loop

/// One scheduled request of an open-loop run. Times are seconds on the
/// generator's clock.
struct Op {
  double due = 0.0;   ///< when the schedule says it is sent
  double sent = 0.0;  ///< when the generator actually sent it
  double done = 0.0;  ///< when its reply arrived
  bool ok = false;

  /// Latency as a user sees it: from when the request was due, so a stall
  /// is charged to every request queued behind it.
  double Latency() const { return done - due; }
};

/// Drives `ops` (sorted by due time) through one connection that carries
/// one request at a time. The schedule never waits on replies: a request
/// whose due time passes while an earlier one is outstanding is sent as
/// soon as the connection frees, and its latency still counts from its
/// due time. `clock.Now()` reads seconds, `clock.SleepUntil(t)` waits;
/// `call(i)` performs request i and returns whether it succeeded.
template <typename Clock, typename Call>
void RunOpenLoop(std::vector<Op>& ops, Clock& clock, Call&& call) {
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (clock.Now() < op.due) clock.SleepUntil(op.due);
    op.sent = clock.Now();
    op.ok = call(i);
    op.done = clock.Now();
  }
}

/// How late the generator itself sent each request: the send time minus
/// the later of its due time and the moment the connection became free.
/// Waiting on an earlier reply is the system's queueing, not lateness.
inline std::vector<double> GeneratorLateness(const std::vector<Op>& ops) {
  std::vector<double> late;
  late.reserve(ops.size());
  double free_at = 0.0;
  for (const Op& op : ops) {
    late.push_back(op.sent - std::max(op.due, free_at));
    free_at = op.done;
  }
  return late;
}

/// Requests due but not yet answered at time `t`.
inline size_t BacklogAt(const std::vector<Op>& ops, double t) {
  size_t n = 0;
  for (const Op& op : ops) n += op.due <= t && op.done > t;
  return n;
}

/// Backlog growth over one run: the backlog a quarter of the way through
/// the schedule and at its last due time. The backlog grows when the
/// second exceeds the first by more than two requests and by more than a
/// twentieth of the requests in a quarter.
struct BacklogTrend {
  size_t at_quarter = 0;
  size_t at_end = 0;
  bool grows = false;
};

inline BacklogTrend MeasureBacklog(const std::vector<Op>& ops) {
  BacklogTrend trend;
  if (ops.empty()) return trend;
  const double begin = ops.front().due;
  const double span = ops.back().due - begin;
  trend.at_quarter = BacklogAt(ops, begin + 0.25 * span);
  trend.at_end = BacklogAt(ops, ops.back().due);
  const double slack =
      std::max(2.0, 0.05 * static_cast<double>(ops.size()) / 4);
  trend.grows = static_cast<double>(trend.at_end) >
                static_cast<double>(trend.at_quarter) + slack;
  return trend;
}

// ------------------------------------------------------------------ spans

/// One finished span on the benchmark's own timeline (microseconds since
/// the tracer was created).
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t run = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory tracer. Spans nest by scope on the calling thread; when the
/// tracer is disabled a span costs one branch and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false, uint64_t run = 0)
      : enabled_(enabled), run_(run), epoch_(Clock::now()) {}

  void Begin(const std::string& name) {
    if (!enabled_) return;
    SpanRecord span;
    span.name = name;
    span.id = ++next_id_;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.run = run_;
    span.start_us = NowUs();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(span));
  }

  void End() {
    if (!enabled_ || open_.empty()) return;
    spans_[open_.back()].end_us = NowUs();
    open_.pop_back();
  }

  /// Adds a finished span directly (tests; spans timed elsewhere).
  void Add(SpanRecord span) { spans_.push_back(std::move(span)); }

  /// Self time of every span (its duration minus the part of it that its
  /// child spans cover), summed by span name, in seconds.
  std::map<std::string, double> SelfSeconds() const {
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
    }
    std::map<std::string, double> self;
    for (const SpanRecord& s : spans_) {
      double covered = 0.0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<double, double>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_begin = 0.0, cur_end = -1.0;
        for (auto [b, e] : iv) {
          b = std::max(b, s.start_us);
          e = std::min(e, s.end_us);
          if (e <= b) continue;
          if (b > cur_end) {
            if (cur_end > cur_begin) covered += cur_end - cur_begin;
            cur_begin = b;
            cur_end = e;
          } else {
            cur_end = std::max(cur_end, e);
          }
        }
        if (cur_end > cur_begin) covered += cur_end - cur_begin;
      }
      self[s.name] += (s.end_us - s.start_us - covered) * 1e-6;
    }
    return self;
  }

  /// Total duration of every span of `name`, in seconds.
  double TotalSeconds(const std::string& name) const {
    double total = 0.0;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) total += (s.end_us - s.start_us) * 1e-6;
    }
    return total;
  }

  /// Writes the spans as Chrome trace-event JSON (complete "X" events).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"run\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                   s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  uint64_t run_;
  Clock::time_point epoch_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;  // indices into spans_ of the open spans
};

/// RAII span on a tracer.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name) : tracer_(tracer) {
    tracer_.Begin(name);
  }
  ~Span() { tracer_.End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
