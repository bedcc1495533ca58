// Tests for the serving layer: wire-protocol round trips, the in-process
// CandidateService, the socket server/client end to end, and concurrent
// insert/query traffic (the case the TSan gate exercises; this test
// carries the `service` and `concurrency` ctest labels).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/cora_generator.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "obs/span.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"
#include "service/protocol.h"

namespace sablock::service {
namespace {

using Ids = std::vector<data::RecordId>;

std::vector<std::string_view> Row(const std::vector<std::string>& values) {
  return {values.begin(), values.end()};
}

data::Schema TwoAttrSchema() { return data::Schema({"name", "city"}); }

std::unique_ptr<CandidateService> MakeTokenService() {
  std::unique_ptr<CandidateService> service;
  Status s = CandidateService::Make(
      TwoAttrSchema(), "token-blocking:attrs=name+city", &service);
  EXPECT_TRUE(s.ok()) << s.message();
  return service;
}

/// A per-test socket path under /tmp (sun_path is length-limited, so no
/// build-tree paths).
std::string TestSocketPath(const std::string& tag) {
  return "/tmp/sablock-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

TEST(WireProtocolTest, WriterReaderRoundTrip) {
  WireWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Str("hello");
  w.Str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 7u);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Finished());
}

TEST(WireProtocolTest, ShortPayloadLatchesNotOk) {
  WireWriter w;
  w.U32(5);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // under-run: zeros from here on
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.Finished());
}

TEST(WireProtocolTest, TrailingBytesAreNotFinished) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.Finished());  // one byte unread
}

TEST(CandidateServiceTest, InsertQueryRemoveStats) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  EXPECT_EQ(service->Insert(Row(a)), 0u);
  EXPECT_EQ(service->Insert(Row(b)), 1u);

  std::vector<std::string> probe = {"Eve Smith", "Oslo"};
  EXPECT_EQ(service->Query(Row(probe)), (Ids{0, 1}));

  EXPECT_TRUE(service->Remove(0));
  EXPECT_FALSE(service->Remove(0));
  EXPECT_EQ(service->Query(Row(probe)), (Ids{1}));

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_FALSE(stats.index_name.empty());
}

TEST(CandidateServiceTest, IndexesArenaCopiesNotCallerBuffers) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  {
    // Values live in a scope that ends before the query: the service
    // must have copied them into its dataset.
    std::vector<std::string> tmp = {"Carol Jones", "Lisbon"};
    service->Insert(Row(tmp));
  }
  std::vector<std::string> probe = {"Carol", ""};
  EXPECT_EQ(service->Query(Row(probe)), (Ids{0}));
}

TEST(CandidateServerTest, EndToEndOverSocket) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("e2e"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  data::RecordId id = 99;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  EXPECT_EQ(id, 0u);
  ASSERT_TRUE(client.Insert(Row(b), &id).ok());
  EXPECT_EQ(id, 1u);

  std::vector<std::string> probe = {"Eve Smith", "Oslo"};
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(probe), &candidates).ok());
  EXPECT_EQ(candidates, (Ids{0, 1}));

  std::vector<std::vector<data::RecordId>> batch;
  ASSERT_TRUE(client
                  .BatchQuery({{"X Smith", ""}, {"", "Berlin"}, {"Z", "Y"}},
                              &batch)
                  .ok());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], (Ids{0, 1}));
  EXPECT_EQ(batch[1], (Ids{0}));
  EXPECT_TRUE(batch[2].empty());

  bool removed = false;
  ASSERT_TRUE(client.Remove(0, &removed).ok());
  EXPECT_TRUE(removed);
  ASSERT_TRUE(client.Remove(0, &removed).ok());
  EXPECT_FALSE(removed);

  ServiceStats stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.queries, 4u);  // 1 single + 3 batch probes
  EXPECT_EQ(stats.removes, 1u);  // only the successful removal counts

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, MetricsVerbReturnsPrometheusText) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("metrics"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  // Touch the service so the per-op and per-index families exist.
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  data::RecordId id = 0;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(a), &candidates).ok());

  std::string text;
  Status s = client.Metrics(&text);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_NE(text.find("# TYPE service_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("service_requests{op=\"insert\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE service_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE index_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("service_inflight_requests"), std::string::npos);

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, TracedRequestsCarryTheClientTraceId) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("traced"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());
  client.EnableTracing(true);

  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  data::RecordId id = 0;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  const obs::TraceId trace = client.last_trace_id();
  EXPECT_NE(trace, 0u);

  // The server recorded a `service.request` span under the client's id
  // (same process here, so the global tracer is shared).
  std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().ForTrace(trace);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().name, "service.request");

  // Subsequent traced requests mint fresh ids on the same connection.
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(a), &candidates).ok());
  EXPECT_NE(client.last_trace_id(), trace);

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, WrongArityIsAnErrorResponseNotADisconnect) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("arity"), 1);
  ASSERT_TRUE(server.Start().ok());
  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  std::vector<std::string> short_row = {"only-one-value"};
  data::RecordId id = 0;
  Status s = client.Insert(Row(short_row), &id);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(client.connected());  // server kept the connection

  // The same connection still serves well-formed requests.
  std::vector<std::string> ok_row = {"Alice", "Berlin"};
  ASSERT_TRUE(client.Insert(Row(ok_row), &id).ok());
  EXPECT_EQ(id, 0u);
  server.Stop();
}

TEST(CandidateServerTest, ProgressiveQueryRejectsNonFiniteBudgets) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("budget"), 1);
  ASSERT_TRUE(server.Start().ok());
  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Berlin"};
  data::RecordId id = 0;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  ASSERT_TRUE(client.Insert(Row(b), &id).ok());

  std::vector<std::string> probe = {"Eve Smith", "Berlin"};
  std::vector<std::pair<data::RecordId, double>> scored;
  ASSERT_TRUE(
      client.QueryProgressive(Row(probe), "seconds=60", &scored).ok());
  EXPECT_EQ(scored.size(), 2u);

  // A wire-supplied budget that would be exhausted at birth (or silently
  // unlimited) is an error response naming the term, not an empty result.
  for (const char* budget :
       {"seconds=inf", "seconds=1e300", "seconds=nan", "recall-target=nan"}) {
    SCOPED_TRACE(budget);
    Status s = client.QueryProgressive(Row(probe), budget, &scored);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("budget term"), std::string::npos)
        << s.message();
    EXPECT_TRUE(client.connected());
  }
  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, StopUnblocksConnectedClients) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("stop"), 1);
  ASSERT_TRUE(server.Start().ok());
  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());
  server.Stop();
  ServiceStats stats;
  EXPECT_FALSE(client.Stats(&stats).ok());  // connection was shut down
  server.Stop();                            // idempotent
}

TEST(CandidateServerConcurrencyTest, ParallelInsertAndQueryClients) {
  // Several client threads hammer one server with interleaved inserts
  // and queries; under --tsan this is the serving stack's data-race
  // gate. Correctness check: every insert got a distinct id and the
  // final record count matches.
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(TwoAttrSchema(),
                                     "lsh:k=2,l=4,q=2,attrs=name+city",
                                     &service)
                  .ok());
  CandidateServer server(service.get(), TestSocketPath("conc"), 4);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::vector<data::RecordId>> ids_per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CandidateClient client;
      if (!CandidateClient::Connect(server.socket_path(), &client).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::vector<std::string> row = {
            "name" + std::to_string(t) + "x" + std::to_string(i % 7),
            "city" + std::to_string(i % 3)};
        data::RecordId id = 0;
        if (!client.Insert(Row(row), &id).ok()) {
          failures.fetch_add(1);
          return;
        }
        ids_per_thread[t].push_back(id);
        Ids candidates;
        if (!client.Query(Row(row), &candidates).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<data::RecordId> all;
  for (const auto& ids : ids_per_thread) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(),
            static_cast<size_t>(kThreads) * kOpsPerThread);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i);  // distinct, dense ids
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.records, all.size());
  server.Stop();
}

TEST(CandidateServiceTest, WarmServiceReproducesBatchBlocksViaEmit) {
  // The service's EmitBlocks is the index's — loading a generated
  // dataset through Insert matches index::LoadDataset output.
  data::CoraGeneratorConfig config;
  config.num_records = 120;
  config.num_entities = 12;
  config.seed = 42;
  data::Dataset dataset = GenerateCoraLike(config);

  const std::string spec = "token-blocking:attrs=authors+title";
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(
      CandidateService::Make(dataset.schema(), spec, &service).ok());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    service->Insert(dataset.Values(id));
  }
  core::BlockCollection via_service;
  service->EmitBlocks(via_service);

  std::unique_ptr<index::IncrementalIndex> direct;
  ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &direct).ok());
  index::LoadDataset(*direct, dataset);
  EXPECT_EQ(index::CanonicalBlockBytes(via_service),
            index::CanonicalBlockBytes(index::CollectBlocks(*direct)));
}

}  // namespace
}  // namespace sablock::service
