// The benchmark's own tests: fingerprints, the percentile rule, open-loop
// timing and span self time. Run with `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "harness.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += !ok;
}

using Blocks = std::vector<std::vector<uint32_t>>;

/// The benchmark's pair fingerprint: the distinct pairs of the blocks as
/// BlockCollection::DistinctPairs collects them.
pb::Fingerprint Pairs(const Blocks& blocks) {
  sablock::core::BlockCollection collection;
  for (const auto& b : blocks) collection.Add({b.begin(), b.end()});
  return pb::PairSetFingerprint(collection.DistinctPairs());
}

void FingerprintIgnoresOrder() {
  const Blocks a = {{1, 2, 3}, {4, 5}, {2, 3}};
  const Blocks b = {{5, 4}, {3, 2}, {3, 1, 2}};  // blocks and ids reordered
  Expect(pb::BlocksFingerprint(a) == pb::BlocksFingerprint(b),
         "block fingerprint ignores block and id order");
  Expect(Pairs(a) == Pairs(b),
         "pair fingerprint ignores block and pair order");

  const Blocks duplicated = {{1, 2, 3}, {4, 5}, {2, 3}, {2, 3}};
  Expect(!(pb::BlocksFingerprint(a) == pb::BlocksFingerprint(duplicated)),
         "block fingerprint counts a repeated block");
  Expect(Pairs(a) ==
             Pairs(duplicated),
         "pair fingerprint counts each distinct pair once");

  const Blocks one_pair_differs = {{1, 2, 3}, {4, 6}, {2, 3}};
  Expect(!(Pairs(a) ==
           Pairs(one_pair_differs)),
         "pair fingerprint changes when one pair differs");
  Expect(!(pb::BlocksFingerprint(a) ==
           pb::BlocksFingerprint(one_pair_differs)),
         "block fingerprint changes when one block differs");
}

void PercentileNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  Expect(!pb::Percentile(v, 0.99).has_value(),
         "p99 withheld with nine samples beyond it (n=999)");
  v.push_back(1000);
  const auto p99 = pb::Percentile(v, 0.99);
  Expect(p99.has_value() && *p99 == 990.0,
         "p99 reported with ten samples beyond it (n=1000)");
  Expect(pb::Median({3, 1, 2}) == 2.0 && pb::Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
}

/// A clock that only moves when the code under test waits or works.
struct FakeClock {
  double now = 0.0;
  double Now() const { return now; }
  void SleepUntil(double t) { now = std::max(now, t); }
};

void OpenLoopChargesStall() {
  // Ten requests due every millisecond; each takes 0.1 ms except the
  // third, which stalls for 50 ms.
  std::vector<pb::Op> ops(10);
  for (size_t i = 0; i < ops.size(); ++i) ops[i].due = 1e-3 * i;
  FakeClock clock;
  pb::RunOpenLoop(ops, clock, [&](size_t i) {
    clock.now += i == 2 ? 50e-3 : 0.1e-3;
    return true;
  });
  Expect(ops[1].Latency() < 0.2e-3, "request before the stall is fast");
  bool charged = true;
  for (size_t i = 3; i < ops.size(); ++i) {
    // Due at i ms, answered after the stall ends at 52 ms plus service.
    charged = charged && ops[i].Latency() > 40e-3;
  }
  Expect(charged, "requests queued behind a stall are charged its wait");
  Expect(ops[9].sent > ops[9].due,
         "the schedule did not wait: later requests were already due");
  const std::vector<double> late = pb::GeneratorLateness(ops);
  bool none = true;
  for (double l : late) none = none && l < 1e-9;
  Expect(none, "waiting on the connection is not generator lateness");
  const pb::BacklogTrend trend = pb::MeasureBacklog(ops);
  Expect(trend.at_end > 0, "backlog seen at the end of the schedule");
}

void SelfTimeSubtractsChildren() {
  pb::Tracer tracer;
  tracer.Add({"build", 1, 0, 7, 0, 100});
  tracer.Add({"signatures", 2, 1, 7, 10, 40});
  tracer.Add({"group", 3, 1, 7, 30, 70});  // overlaps its sibling
  tracer.Add({"emit", 4, 3, 7, 60, 70});
  const auto self = tracer.SelfSeconds();
  Expect(std::abs(self.at("build") - 40e-6) < 1e-12,
         "parent self time excludes the union of child spans");
  Expect(std::abs(self.at("group") - 30e-6) < 1e-12,
         "child self time excludes its own child");
  Expect(std::abs(self.at("signatures") - 30e-6) < 1e-12,
         "leaf self time is its duration");
}

}  // namespace

int main() {
  FingerprintIgnoresOrder();
  PercentileNeedsTenBeyond();
  OpenLoopChargesStall();
  SelfTimeSubtractsChildren();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
