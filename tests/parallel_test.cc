// Parallelism inside one technique: the fork-join primitive
// (common/parallel.h) and the engine's one-shard parity guarantee —
// Execute at threads=2 and threads=4 (shards=1) emits exactly the
// blocks() sequence of a plain Run, for every registry technique and the
// Fig. 12 meta pipeline, and for LSH/SA-LSH above the fork grain. Runs
// under TSan via the `concurrency` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/blocking.h"
#include "data/voter_generator.h"
#include "engine/execution_spec.h"
#include "engine/sharded_executor.h"
#include "pipeline/pipeline.h"

namespace sablock {
namespace {

using core::BlockCollection;

// --- the fork-join primitive ---------------------------------------------

TEST(ParallelForTest, ChunkBoundsCoverTheRangeContiguously) {
  for (size_t n : {0, 1, 7, 100, 1001}) {
    for (size_t chunks = 1; chunks <= 5; ++chunks) {
      size_t next = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ChunkBounds(n, chunks, c);
        EXPECT_EQ(begin, next) << n << "/" << chunks;
        EXPECT_LE(end - begin, n / chunks + 1);
        EXPECT_GE(end - begin, n / chunks);
        next = end;
      }
      EXPECT_EQ(next, n);
    }
  }
}

TEST(ParallelForTest, RunsInlineWithoutAScope) {
  EXPECT_EQ(ParallelWorkers(), 1);
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(100000, 10, [&](size_t begin, size_t end) {
    calls.emplace_back(begin, end);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(size_t{0}, size_t{100000}));
}

TEST(ParallelForTest, ScopeSplitsAboveTheGrainAndRestores) {
  {
    ParallelScope workers(4);
    EXPECT_EQ(ParallelWorkers(), 4);
    EXPECT_EQ(ParallelChunks(1000, 1000), 1u);  // at the grain: inline
    EXPECT_EQ(ParallelChunks(1001, 1000), 2u);
    EXPECT_EQ(ParallelChunks(100000, 1000), 4u);  // capped at the workers

    const size_t n = 100000;
    std::vector<int> hits(n, 0);
    ForEachChunk(n, 4, [&](size_t, size_t begin, size_t end) {
      // A ParallelFor nested in a chunk runs inline.
      EXPECT_EQ(ParallelWorkers(), 1);
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
    EXPECT_EQ(ParallelWorkers(), 4);  // reinstalled after the job
    {
      ParallelScope serial(1);  // a one-thread scope installs no workers
      EXPECT_EQ(ParallelWorkers(), 1);
    }
    EXPECT_EQ(ParallelWorkers(), 4);
  }
  EXPECT_EQ(ParallelWorkers(), 1);
}

TEST(ParallelForTest, ManyJobsOnOnePool) {
  // One pool serves every fork-join of its scope; each job sees all the
  // writes of the one before it.
  ParallelScope workers(3);
  std::vector<uint64_t> values(30000, 1);
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint64_t> sum{0};
    ParallelFor(values.size(), 1000, [&](size_t begin, size_t end) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) local += values[i]++;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), values.size() * static_cast<uint64_t>(round + 1));
  }
}

// --- engine parity --------------------------------------------------------

data::Dataset Voter(size_t records) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = 97;
  return data::GenerateVoterLike(config);
}

std::unique_ptr<pipeline::PipelinedBlocker> BuildOrDie(
    const std::string& spec) {
  std::unique_ptr<pipeline::PipelinedBlocker> built;
  Status status = pipeline::Build(spec, &built);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return built;
}

// Runs `spec` cold (a fresh feature cache, so the columns are built under
// the workers too): plainly, then through the engine at 2 and 4 threads
// with one shard. Every run must emit the identical blocks() sequence.
void ExpectParity(const std::string& spec, const data::Dataset& dataset) {
  SCOPED_TRACE(spec);
  std::unique_ptr<pipeline::PipelinedBlocker> built = BuildOrDie(spec);
  ASSERT_NE(built, nullptr);
  BlockCollection serial;
  built->Run(dataset.ColdCopy(), serial);
  ASSERT_GT(serial.NumBlocks(), 0u);
  for (int threads : {2, 4}) {
    engine::ExecutionSpec exec;
    exec.threads = threads;
    ASSERT_EQ(exec.shards, 1);
    const engine::ShardedExecutor executor(exec);
    const data::Dataset cold = dataset.ColdCopy();
    BlockCollection parallel;
    if (built->stages().empty()) {
      executor.Execute(built->blocker(), cold, parallel);
    } else {
      executor.ExecutePipeline(built->blocker(), built->stages(), cold,
                               parallel);
    }
    EXPECT_EQ(parallel.blocks(), serial.blocks()) << threads << " threads";
  }
}

// One spec per registered technique (the registry sweep of
// progressive_golden_test, on Voter attributes), plus the Fig. 12
// meta-blocking pipeline.
const char* const kVoterSpecs[] = {
    "tblo:attrs=first_name+last_name",
    "sor-a:window=3,attrs=first_name+last_name",
    "sor-ii:window=3,attrs=first_name+last_name",
    "sor-mp:window=3,attrs=first_name+last_name",
    "asor:sim=jaro_winkler,threshold=0.8,max-block=50,"
    "attrs=first_name+last_name",
    "qgram:q=2,threshold=0.8,max-keys=64,attrs=last_name",
    "sua:min-suffix=4,max-block=20,attrs=first_name+last_name",
    "suas:min-suffix=4,max-block=20,attrs=last_name",
    "rsua:min-suffix=4,max-block=20,sim=jaro_winkler,threshold=0.9,"
    "attrs=first_name+last_name",
    "stmt:threshold=0.9,grid=100,dim=15,seed=73,attrs=first_name+last_name",
    "stmnn:nn=5,grid=100,dim=15,seed=73,attrs=first_name+last_name",
    "cath:sim=jaccard,loose=0.4,tight=0.8,seed=31,"
    "attrs=first_name+last_name",
    "cann:sim=tfidf,n1=10,n2=5,seed=31,attrs=first_name+last_name",
    "meta:weighting=cbs,pruning=wep,max-block=500,"
    "attrs=first_name+last_name",
    "lsh:k=4,l=8,q=2,seed=7,attrs=first_name+last_name",
    "sa-lsh:k=4,l=8,q=2,seed=7,w=5,mode=or,domain=voter,sem-seed=11,"
    "attrs=first_name+last_name",
    "sa-lsh:k=4,l=8,q=2,seed=7,w=2,mode=and,domain=voter,sem-seed=11,"
    "attrs=first_name+last_name",
    "mp-lsh:k=4,l=8,q=2,seed=7,probes=2,attrs=first_name+last_name",
    "forest:k=4,l=8,q=2,seed=7,depth=10,max-block=25,"
    "attrs=first_name+last_name",
    "harra:k=4,l=8,q=2,seed=7,merge-threshold=0.5,iterations=2,"
    "attrs=first_name+last_name",
    "token-blocking:attrs=first_name+last_name | purge:max_size=500 | "
    "meta:weight=cbs,prune=wep",
};

TEST(ParallelParityTest, EveryTechniqueMatchesPlainRun) {
  // Above kRecordGrain, so the feature columns split at 2 and 4 threads.
  const data::Dataset dataset = Voter(3000);
  ASSERT_GT(dataset.size(), kRecordGrain);
  for (const char* spec : kVoterSpecs) ExpectParity(spec, dataset);
}

TEST(ParallelParityTest, LshFamilyAboveTheSortGrain) {
  // ~40k records: every table's band keys, SA-LSH key parts and radix sort
  // split into chunks, not just the feature columns.
  const data::Dataset dataset = Voter(40000);
  ExpectParity("lsh:k=9,l=4,q=2,attrs=first_name+last_name", dataset);
  ExpectParity(
      "sa-lsh:k=9,l=4,q=2,w=12,mode=or,domain=voter,"
      "attrs=first_name+last_name",
      dataset);
  ExpectParity(
      "sa-lsh:k=4,l=4,q=2,w=2,mode=and,domain=voter,"
      "attrs=first_name+last_name",
      dataset);
}

}  // namespace
}  // namespace sablock
