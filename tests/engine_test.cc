#include "engine/sharded_executor.h"

#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/check.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "core/budget.h"
#include "data/voter_generator.h"
#include "engine/execution_spec.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "run_streaming.h"

namespace sablock::engine {
namespace {

using core::BlockCollection;
using core::BlockingTechnique;

data::Dataset SmallVoter(size_t records = 2000) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = 97;
  return GenerateVoterLike(config);
}

std::unique_ptr<BlockingTechnique> FromSpec(const std::string& spec) {
  std::unique_ptr<BlockingTechnique> technique;
  Status status = api::BlockerRegistry::Global().Create(spec, &technique);
  // Abort (not EXPECT) so a bad spec fails with the Status message
  // instead of a null dereference in the calling test.
  SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
  return technique;
}

BlockCollection Collect(const ExecutionSpec& spec,
                        const BlockingTechnique& technique,
                        const data::Dataset& dataset) {
  BlockCollection out;
  ShardedExecutor(spec).Execute(technique, dataset, out);
  return out;
}

std::shared_ptr<core::BudgetMeter> PairsMeter(uint64_t pairs) {
  return std::make_shared<core::BudgetMeter>(core::Budget{.pairs = pairs});
}

// --- ExecutionSpec --------------------------------------------------------

TEST(ExecutionSpecTest, ParsesThreads) {
  ExecutionSpec spec;
  Status status = ExecutionSpec::Parse("threads=4", &spec);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(spec.threads, 4);
  EXPECT_EQ(spec.shards, 1);
}

TEST(ExecutionSpecTest, EmptyTextIsDefaultSpec) {
  ExecutionSpec spec;
  ASSERT_TRUE(ExecutionSpec::Parse("", &spec).ok());
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.shards, 1);
}

TEST(ExecutionSpecTest, RejectsBadInput) {
  ExecutionSpec spec;
  EXPECT_FALSE(ExecutionSpec::Parse("threads=0", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("workers=3", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("threads", &spec).ok());
  // shards= and merge= are unknown keys (record sharding changed the
  // answer), and the error names the key.
  struct Removed {
    const char* text;
    const char* key;
  };
  for (const Removed& removed : {Removed{"shards=2", "'shards'"},
                                 Removed{"merge=stream", "'merge'"},
                                 Removed{"threads=2,shards=2", "'shards'"}}) {
    SCOPED_TRACE(removed.text);
    Status status = ExecutionSpec::Parse(removed.text, &spec);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find(removed.key), std::string::npos)
        << status.message();
  }
}

TEST(ExecutionSpecTest, ToStringRoundTrips) {
  ExecutionSpec spec;
  spec.threads = 3;
  EXPECT_EQ(spec.ToString(), "threads=3");
  ExecutionSpec parsed;
  ASSERT_TRUE(ExecutionSpec::Parse(spec.ToString(), &parsed).ok());
  EXPECT_EQ(parsed.threads, 3);
}

// --- ShardedExecutor ------------------------------------------------------

TEST(ShardedExecutorTest, DefaultSpecMatchesDirectRun) {
  data::Dataset dataset = SmallVoter(500);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("tblo:attrs=first_name+last_name");
  BlockCollection direct = RunStreaming(*technique, dataset);

  ExecutionSpec spec;  // threads=1
  EXPECT_EQ(Collect(spec, *technique, dataset).blocks(), direct.blocks());
}

// The one budget path: the caller's BudgetedSink passed into Execute.
// Emission stays on the calling thread, so a budgeted run is
// byte-identical to a budgeted plain Run at any thread count.
TEST(ShardedExecutorTest, BudgetedRunIsIdenticalAcrossThreadCounts) {
  data::Dataset dataset = SmallVoter(1000);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("sa-lsh:domain=voter,k=4,l=8,q=2,w=5,mode=or");
  const uint64_t budget =
      RunStreaming(*technique, dataset).TotalComparisons() / 2;
  ASSERT_GT(budget, 10u);
  BlockCollection reference;
  core::BudgetedSink reference_sink(reference, PairsMeter(budget));
  technique->Run(dataset, reference_sink);
  ASSERT_GT(reference.NumBlocks(), 0u);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionSpec spec;
    spec.threads = threads;
    BlockCollection collection;
    core::BudgetedSink budgeted(collection, PairsMeter(budget));
    ShardedExecutor(spec).Execute(*technique, dataset, budgeted);
    EXPECT_TRUE(budgeted.Done());
    EXPECT_GE(collection.TotalComparisons(), budget);
    EXPECT_EQ(collection.blocks(), reference.blocks());
  }
}

TEST(ShardedExecutorTest, EmptyDatasetProducesNoBlocks) {
  data::Dataset dataset = SmallVoter(1).Prefix(0);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("tblo:attrs=last_name");
  ExecutionSpec spec;
  spec.threads = 4;
  EXPECT_EQ(Collect(spec, *technique, dataset).NumBlocks(), 0u);
}

// --- determinism (the reproducibility guarantee) --------------------------

// Execute at 1, 2 and 8 threads emits the blocks() sequence of a plain
// Run, and RunTechnique reports the plain run's metrics.
void ExpectPlainRunAtOneTwoEightThreads(const std::string& spec_text) {
  SCOPED_TRACE(spec_text);
  data::Dataset dataset = SmallVoter(2000);
  std::unique_ptr<BlockingTechnique> technique = FromSpec(spec_text);
  const BlockCollection plain = RunStreaming(*technique, dataset.ColdCopy());
  ASSERT_GT(plain.NumBlocks(), 0u);
  const eval::Metrics reference = eval::Evaluate(dataset, plain);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionSpec spec;
    spec.threads = threads;
    EXPECT_EQ(Collect(spec, *technique, dataset.ColdCopy()).blocks(),
              plain.blocks());
    const eval::Metrics m =
        eval::RunTechnique(*technique, dataset, spec).metrics;
    EXPECT_EQ(m.pc, reference.pc);
    EXPECT_EQ(m.pq, reference.pq);
    EXPECT_EQ(m.rr, reference.rr);
    EXPECT_EQ(m.fm, reference.fm);
    EXPECT_EQ(m.distinct_pairs, reference.distinct_pairs);
    EXPECT_EQ(m.true_pairs, reference.true_pairs);
    EXPECT_EQ(m.total_comparisons, reference.total_comparisons);
    EXPECT_EQ(m.num_blocks, reference.num_blocks);
    EXPECT_EQ(m.max_block_size, reference.max_block_size);
  }
}

TEST(EngineDeterminismTest, SaLshMetricsIdenticalAtOneTwoEightThreads) {
  ExpectPlainRunAtOneTwoEightThreads(
      "sa-lsh:domain=voter,k=4,l=8,q=2,w=5,mode=or");
}

TEST(EngineDeterminismTest,
     StandardBlockingMetricsIdenticalAtOneTwoEightThreads) {
  ExpectPlainRunAtOneTwoEightThreads("tblo:attrs=first_name+last_name");
}

// --- eval integration -----------------------------------------------------

TEST(RunAllParallelTest, MatchesSequentialRunAll) {
  data::Dataset dataset = SmallVoter(600);
  std::vector<std::unique_ptr<BlockingTechnique>> settings;
  settings.push_back(FromSpec("tblo:attrs=last_name"));
  settings.push_back(FromSpec("tblo:attrs=first_name"));
  settings.push_back(FromSpec("sor-a:window=3,attrs=last_name"));
  settings.push_back(FromSpec("lsh:k=4,l=8,q=2,attrs=first_name+last_name"));

  std::vector<eval::TechniqueResult> sequential =
      eval::RunAll(settings, dataset);
  std::vector<eval::TechniqueResult> parallel =
      eval::RunAllParallel(settings, dataset, 4);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].name, sequential[i].name);
    EXPECT_EQ(parallel[i].metrics.distinct_pairs,
              sequential[i].metrics.distinct_pairs);
    EXPECT_EQ(parallel[i].metrics.pc, sequential[i].metrics.pc);
    EXPECT_EQ(parallel[i].metrics.pq, sequential[i].metrics.pq);
  }
}

}  // namespace
}  // namespace sablock::engine
