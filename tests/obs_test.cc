// Unit and concurrency tests for the src/obs telemetry core: counters,
// gauges, fixed-bucket histograms and their registry; the JSON and
// Prometheus export sinks; trace spans and the bounded tracer ring. The
// multi-threaded hammer runs under TSan via the `concurrency` ctest
// label.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/blocking.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "data/cora_generator.h"
#include "engine/execution_spec.h"
#include "engine/sharded_executor.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "report/json.h"

namespace sablock::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(7);
  EXPECT_EQ(g.value(), 8);
  g.Sub(20);
  EXPECT_EQ(g.value(), -12);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // == edge: belongs to the first bucket
  h.Observe(1.01);   // <= 10
  h.Observe(10.0);   // == edge
  h.Observe(99.9);   // <= 100
  h.Observe(1000.0); // +Inf overflow
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 10.0 + 99.9 + 1000.0);
}

TEST(HistogramTest, LatencyBucketsAreSortedAndCoverSeconds) {
  std::vector<double> bounds = Histogram::LatencyBuckets();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 1.0);
}

TEST(MetricsRegistryTest, ResolvesStablePointersPerLabel) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reqs", "requests", "op", "insert");
  Counter* b = registry.GetCounter("reqs", "requests", "op", "query");
  Counter* a2 = registry.GetCounter("reqs", "requests", "op", "insert");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
  a->Add(3);
  b->Add(1);

  MetricsSnapshot snapshot = registry.Snapshot();
  const SampleSnapshot* insert = snapshot.Find("reqs", "insert");
  const SampleSnapshot* query = snapshot.Find("reqs", "query");
  ASSERT_NE(insert, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(insert->counter, 3u);
  EXPECT_EQ(query->counter, 1u);
  EXPECT_EQ(snapshot.Find("reqs", "absent"), nullptr);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotSortsFamiliesAndSamples) {
  MetricsRegistry registry;
  registry.GetCounter("zeta", "z");
  registry.GetGauge("alpha", "a");
  registry.GetCounter("mid", "m", "k", "b");
  registry.GetCounter("mid", "m", "k", "a");

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 3u);
  EXPECT_EQ(snapshot.families[0].name, "alpha");
  EXPECT_EQ(snapshot.families[1].name, "mid");
  EXPECT_EQ(snapshot.families[2].name, "zeta");
  ASSERT_EQ(snapshot.families[1].samples.size(), 2u);
  EXPECT_EQ(snapshot.families[1].samples[0].label_value, "a");
  EXPECT_EQ(snapshot.families[1].samples[1].label_value, "b");
  EXPECT_EQ(snapshot.families[0].type, MetricType::kGauge);
}

TEST(ExportTest, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("hits", "cache hits", "column", "token")->Add(7);
  registry.GetGauge("depth", "queue depth")->Set(-2);
  Histogram* h = registry.GetHistogram("lat_seconds", "latency",
                                       {0.5, 2.0}, "op", "query");
  h->Observe(0.25);
  h->Observe(1.0);
  h->Observe(10.0);

  std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# HELP hits cache hits\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("hits{column=\"token\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // Cumulative buckets: 1 <= 0.5, 2 <= 2, 3 <= +Inf.
  EXPECT_NE(text.find("lat_seconds_bucket{op=\"query\",le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{op=\"query\",le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{op=\"query\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count{op=\"query\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum{op=\"query\"} 11.25\n"),
            std::string::npos);
}

TEST(ExportTest, JsonRoundTripPreservesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("hits", "cache hits", "column", "token")->Add(7);
  registry.GetGauge("depth", "queue depth")->Set(-2);
  Histogram* h = registry.GetHistogram("lat_seconds", "latency",
                                       {0.5, 2.0}, "op", "query");
  h->Observe(0.25);
  h->Observe(10.0);
  MetricsSnapshot original = registry.Snapshot();

  report::Json json = SnapshotToJson(original);
  // Through text and back, like the suite JSON on disk.
  report::Json parsed;
  ASSERT_TRUE(report::Json::Parse(json.Dump(2), &parsed).ok());
  MetricsSnapshot restored;
  Status s = SnapshotFromJson(parsed, &restored);
  ASSERT_TRUE(s.ok()) << s.message();

  ASSERT_EQ(restored.families.size(), original.families.size());
  const SampleSnapshot* hits = restored.Find("hits", "token");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->counter, 7u);
  const SampleSnapshot* depth = restored.Find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->gauge, -2);
  const SampleSnapshot* lat = restored.Find("lat_seconds", "query");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_DOUBLE_EQ(lat->sum, 10.25);
  EXPECT_EQ(lat->bounds, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(lat->buckets, (std::vector<uint64_t>{1, 0, 1}));
  // Re-serialization is byte-stable (the golden suite test relies on
  // this through SuiteResult round trips).
  EXPECT_EQ(SnapshotToJson(restored).Dump(2), json.Dump(2));
}

TEST(ExportTest, FromJsonRejectsMalformedShapes) {
  auto reject = [](const char* text) {
    report::Json json;
    ASSERT_TRUE(report::Json::Parse(text, &json).ok()) << text;
    MetricsSnapshot out;
    EXPECT_FALSE(SnapshotFromJson(json, &out).ok()) << text;
  };
  reject("{}");
  reject("{\"families\": [{\"name\": \"x\"}]}");
  reject(
      "{\"families\": [{\"name\": \"x\", \"type\": \"sombrero\","
      " \"help\": \"h\", \"samples\": []}]}");
  // Histogram bucket count must be bounds count + 1.
  reject(
      "{\"families\": [{\"name\": \"x\", \"type\": \"histogram\","
      " \"help\": \"h\", \"samples\": [{\"count\": 1, \"sum\": 1.0,"
      " \"bounds\": [1.0], \"buckets\": [1]}]}]}");
}

TEST(ObsConcurrencyTest, HammerCountersAndHistograms) {
  MetricsRegistry registry;
  Counter* shared = registry.GetCounter("shared", "hammered counter");
  Gauge* level = registry.GetGauge("level", "hammered gauge");
  Histogram* h =
      registry.GetHistogram("hist", "hammered histogram", {1.0, 2.0, 3.0});

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Resolving concurrently must return the same instruments.
      Counter* mine = registry.GetCounter("shared", "hammered counter");
      for (int i = 0; i < kOpsPerThread; ++i) {
        mine->Add(1);
        level->Add(1);
        level->Sub(1);
        h->Observe(static_cast<double>((t + i) % 4) + 0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(shared->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(level->value(), 0);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
  std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  EXPECT_EQ(total, h->count());
  // (t + i) % 4 cycles uniformly: every bucket gets exactly a quarter.
  for (uint64_t b : buckets) {
    EXPECT_EQ(b, static_cast<uint64_t>(kThreads) * kOpsPerThread / 4);
  }
}

TEST(TracerTest, RingDropsOldest) {
  Tracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    SpanRecord span;
    span.name = "s" + std::to_string(i);
    span.trace = static_cast<TraceId>(i + 1);
    tracer.Record(std::move(span));
  }
  std::vector<SpanRecord> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().name, "s2");
  EXPECT_EQ(recent.back().name, "s5");
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(tracer.capacity(), 4u);

  std::vector<SpanRecord> for_trace = tracer.ForTrace(4);
  ASSERT_EQ(for_trace.size(), 1u);
  EXPECT_EQ(for_trace[0].name, "s3");
  EXPECT_TRUE(tracer.ForTrace(1).empty());  // evicted
}

TEST(ObsSpanTest, RecordsIntoTracerWithTraceId) {
  Tracer tracer(16);
  TraceId trace = NextTraceId();
  EXPECT_NE(trace, 0u);
  EXPECT_NE(NextTraceId(), trace);
  {
    ObsSpan span("test.span", trace, &tracer);
    EXPECT_EQ(span.trace(), trace);
    EXPECT_GE(span.Elapsed(), 0.0);
  }
  std::vector<SpanRecord> spans = tracer.ForTrace(trace);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.span");
  EXPECT_GE(spans[0].duration_us, 0.0);
}

TEST(ObsSpanTest, FeedsSpanSecondsFamily) {
  Tracer tracer(4);
  { ObsSpan span("obs_test.family", 0, &tracer); }
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const SampleSnapshot* sample =
      snapshot.Find("span_seconds", "obs_test.family");
  ASSERT_NE(sample, nullptr);
  EXPECT_GE(sample->count, 1u);
}

/// Observations of `span_seconds{span=<name>}` so far (0 if unseen).
uint64_t SpanCount(const std::string& name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const SampleSnapshot* sample = snapshot.Find("span_seconds", name);
  return sample == nullptr ? 0 : sample->count;
}

TEST(PhaseSpanTest, ColdLshRunRecordsEachFeatureBuildOnce) {
  // A cold LSH Run builds the text, shingle and signature columns, one
  // span each (however many workers split the build); it needs no
  // token column.
  data::CoraGeneratorConfig config;
  config.num_records = 150;
  config.num_entities = 15;
  const data::Dataset dataset = data::GenerateCoraLike(config);
  core::LshParams params;
  params.k = 3;
  params.l = 4;
  params.attributes = {"title"};

  const std::vector<std::string> built = {"features.build.text",
                                          "features.build.shingle",
                                          "features.build.signature"};
  std::vector<uint64_t> before;
  for (const std::string& name : built) before.push_back(SpanCount(name));
  const uint64_t tokens_before = SpanCount("features.build.token");

  core::BlockCollection blocks;
  core::LshBlocker(params).Run(dataset, blocks);
  for (size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(SpanCount(built[i]), before[i] + 1) << built[i];
  }
  EXPECT_EQ(SpanCount("features.build.token"), tokens_before);

  // Warm: the columns are cached, nothing is built again.
  core::LshBlocker(params).Run(dataset, blocks);
  for (size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(SpanCount(built[i]), before[i] + 1) << built[i];
  }
}

TEST(PhaseSpanTest, EngineRecordsOneSpanPerExecute) {
  data::CoraGeneratorConfig config;
  config.num_records = 120;
  config.num_entities = 12;
  const data::Dataset dataset = data::GenerateCoraLike(config);
  core::LshParams params;
  params.k = 3;
  params.l = 4;
  params.attributes = {"title"};
  const core::LshBlocker lsh(params);
  const uint64_t before = SpanCount("engine.shard");
  engine::ExecutionSpec spec;
  spec.threads = 2;
  core::BlockCollection blocks;
  engine::ShardedExecutor(spec).Execute(lsh, dataset, blocks);
  EXPECT_EQ(SpanCount("engine.shard"), before + 1);
}

TEST(PhaseSpanTest, OneRunRecordsEachPhaseOnce) {
  // One span per phase per Run, however many tables the Run has.
  data::CoraGeneratorConfig config;
  config.num_records = 200;
  config.num_entities = 20;
  const data::Dataset dataset = data::GenerateCoraLike(config);
  const core::Domain domain = core::MakeBibliographicDomain();
  core::LshParams params;
  params.k = 4;
  params.l = 6;
  params.attributes = domain.blocking_attributes;

  const std::vector<std::string> lsh = {"core.lsh.band_keys",
                                        "core.lsh.group_emit"};
  const std::vector<std::string> salsh = {"core.salsh.semantic",
                                          "core.salsh.band_keys",
                                          "core.salsh.group_emit"};
  std::vector<uint64_t> before;
  for (const std::string& name : lsh) before.push_back(SpanCount(name));
  for (const std::string& name : salsh) before.push_back(SpanCount(name));

  core::BlockCollection lsh_blocks;
  core::LshBlocker(params).Run(dataset, lsh_blocks);
  for (size_t i = 0; i < lsh.size(); ++i) {
    EXPECT_EQ(SpanCount(lsh[i]), before[i] + 1) << lsh[i];
  }
  core::SemanticParams sem;
  sem.w = 3;
  core::BlockCollection salsh_blocks;
  core::SemanticAwareLshBlocker(params, sem, domain.semantics)
      .Run(dataset, salsh_blocks);
  for (size_t i = 0; i < salsh.size(); ++i) {
    EXPECT_EQ(SpanCount(salsh[i]), before[lsh.size() + i] + 1) << salsh[i];
  }
  EXPECT_GT(lsh_blocks.NumBlocks(), 0u);
  EXPECT_GT(salsh_blocks.NumBlocks(), 0u);

  // Both LSH phase spans reached the global trace ring too.
  size_t recorded = 0;
  for (const SpanRecord& span : Tracer::Global().Recent()) {
    if (span.name == lsh[0] || span.name == lsh[1]) ++recorded;
  }
  EXPECT_GE(recorded, 2u);
}

TEST(ObsSpanTest, PausedTimeIsExcluded) {
  Tracer tracer(4);
  {
    ObsSpan span("obs_test.paused", 0, &tracer);
    span.Pause();
    span.Pause();  // idempotent
    const double paused_at = span.Elapsed();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(span.Elapsed(), paused_at);
    span.Resume();
    span.Resume();  // idempotent
    EXPECT_GE(span.Elapsed(), paused_at);
  }
  std::vector<SpanRecord> spans = tracer.Recent();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_LT(spans[0].duration_us, 200000.0);
}

}  // namespace
}  // namespace sablock::obs
