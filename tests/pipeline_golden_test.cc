// Golden equivalence for meta-blocking: the `meta` registry technique
// (`meta:weighting=,pruning=,max-block=`) must reproduce the spelled-out
// pipeline `token-blocking | purge | meta` byte-identically — same
// blocks, same order — for every weighting × pruning combination, both
// single-threaded and through the sharded engine (merge=collect, where
// each runs whole per record shard).
//
// (The absolute output is additionally pinned by feature_golden_test's
// meta golden hash; this test sweeps the full 20-combo grid for
// registry/pipeline equivalence.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "baselines/meta_blocking.h"
#include "common/string_util.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "pipeline/pipeline.h"

namespace sablock {
namespace {

using baselines::MetaPruning;
using baselines::MetaPruningName;
using baselines::MetaWeighting;
using baselines::MetaWeightingName;
using core::BlockCollection;

constexpr MetaWeighting kWeightings[] = {
    MetaWeighting::kArcs, MetaWeighting::kCbs, MetaWeighting::kEcbs,
    MetaWeighting::kJs, MetaWeighting::kEjs};
constexpr MetaPruning kPrunings[] = {MetaPruning::kWep, MetaPruning::kCep,
                                     MetaPruning::kWnp, MetaPruning::kCnp};
constexpr size_t kPurgeSize = 300;

data::Dataset GoldenDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  return data::GenerateCoraLike(config);
}

std::unique_ptr<pipeline::PipelinedBlocker> BuildPipeline(MetaWeighting w,
                                                          MetaPruning p) {
  const std::string spec =
      "token-blocking:attrs=authors+title | purge:max_size=" +
      std::to_string(kPurgeSize) +
      " | meta:weight=" + ToLower(MetaWeightingName(w)) +
      ",prune=" + ToLower(MetaPruningName(p));
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined;
  Status status = pipeline::Build(spec, &pipelined);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return pipelined;
}

std::unique_ptr<core::BlockingTechnique> BuildRegistered(MetaWeighting w,
                                                         MetaPruning p) {
  const std::string spec = "meta:weighting=" + ToLower(MetaWeightingName(w)) +
                           ",pruning=" + ToLower(MetaPruningName(p)) +
                           ",max-block=" + std::to_string(kPurgeSize) +
                           ",attrs=authors+title";
  std::unique_ptr<core::BlockingTechnique> registered;
  Status status = api::BlockerRegistry::Global().Create(spec, &registered);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return registered;
}

TEST(PipelineGoldenTest, AllCombosRegistryMetaMatchesPipelineByteIdentically) {
  data::Dataset d = GoldenDataset();
  for (MetaWeighting w : kWeightings) {
    for (MetaPruning p : kPrunings) {
      std::unique_ptr<core::BlockingTechnique> registered =
          BuildRegistered(w, p);
      ASSERT_NE(registered, nullptr);
      BlockCollection expected;
      registered->Run(d, expected);

      std::unique_ptr<pipeline::PipelinedBlocker> pipelined =
          BuildPipeline(w, p);
      ASSERT_NE(pipelined, nullptr);
      BlockCollection actual;
      pipelined->Run(d, actual);

      ASSERT_GT(expected.NumBlocks(), 0u) << pipelined->name();
      EXPECT_EQ(actual.blocks(), expected.blocks()) << pipelined->name();
    }
  }
}

TEST(PipelineGoldenTest, AllCombosMatchThroughShardedEngineCollect) {
  data::Dataset d = GoldenDataset();
  engine::ExecutionSpec spec;
  ASSERT_TRUE(engine::ExecutionSpec::Parse("threads=2,shards=3,merge=collect",
                                           &spec)
                  .ok());
  engine::ShardedExecutor executor(spec);
  for (MetaWeighting w : kWeightings) {
    for (MetaPruning p : kPrunings) {
      std::unique_ptr<core::BlockingTechnique> registered =
          BuildRegistered(w, p);
      ASSERT_NE(registered, nullptr);
      BlockCollection expected;
      executor.Execute(*registered, d, expected);

      std::unique_ptr<pipeline::PipelinedBlocker> pipelined =
          BuildPipeline(w, p);
      ASSERT_NE(pipelined, nullptr);
      BlockCollection actual;
      executor.Execute(*pipelined, d, actual);

      ASSERT_GT(expected.NumBlocks(), 0u) << pipelined->name();
      EXPECT_EQ(actual.blocks(), expected.blocks()) << pipelined->name();
    }
  }
}

TEST(PipelineGoldenTest, TokenBlockingHelperEqualsTokenPurgePipeline) {
  data::Dataset d = GoldenDataset();
  BlockCollection legacy =
      baselines::TokenBlocking(d, {"authors", "title"}, kPurgeSize);
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined;
  ASSERT_TRUE(pipeline::Build("token-blocking:attrs=authors+title | "
                              "purge:max_size=" +
                                  std::to_string(kPurgeSize),
                              &pipelined)
                  .ok());
  BlockCollection actual;
  pipelined->Run(d, actual);
  ASSERT_GT(legacy.NumBlocks(), 0u);
  EXPECT_EQ(actual.blocks(), legacy.blocks());
}

TEST(PipelineGoldenTest, RegisteredMetaBlockerIsThePipeline) {
  // The `meta` registry entry is the pipeline, not a packaging of it: it
  // reports the pipeline's name, and its defaults (cbs, wep, 500) are the
  // stage defaults.
  std::unique_ptr<core::BlockingTechnique> registered =
      BuildRegistered(MetaWeighting::kEjs, MetaPruning::kCnp);
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined =
      BuildPipeline(MetaWeighting::kEjs, MetaPruning::kCnp);
  ASSERT_NE(registered, nullptr);
  ASSERT_NE(pipelined, nullptr);
  EXPECT_EQ(registered->name(), pipelined->name());
  EXPECT_EQ(registered->name(),
            "TokenBlocking | purge(max_size=300) | meta(CNP+EJS)");

  std::unique_ptr<core::BlockingTechnique> defaults;
  ASSERT_TRUE(api::BlockerRegistry::Global()
                  .Create("meta:attrs=authors+title", &defaults)
                  .ok());
  std::unique_ptr<pipeline::PipelinedBlocker> stage_defaults;
  ASSERT_TRUE(pipeline::Build("token-blocking:attrs=authors+title | purge | "
                              "meta",
                              &stage_defaults)
                  .ok());
  EXPECT_EQ(defaults->name(), stage_defaults->name());
  data::Dataset d = GoldenDataset();
  BlockCollection from_registry;
  defaults->Run(d, from_registry);
  BlockCollection from_pipeline;
  stage_defaults->Run(d, from_pipeline);
  EXPECT_EQ(from_registry.blocks(), from_pipeline.blocks());
}

}  // namespace
}  // namespace sablock
