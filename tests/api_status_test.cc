// Tests for the value-returning StatusOr construction paths: the
// BlockerRegistry, the StageRegistry, the IndexRegistry and
// pipeline::Build each expose a Create/Build overload that turns every
// malformed spec into a diagnostic Status instead of a CHECK failure. One test per diagnostic
// class pins the message a user actually sees.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "common/statusor.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"

namespace sablock {
namespace {

using api::BlockerRegistry;
using pipeline::StageRegistry;

std::string BlockerError(const std::string& spec) {
  StatusOr<std::unique_ptr<core::BlockingTechnique>> result =
      BlockerRegistry::Global().Create(spec);
  EXPECT_FALSE(result.ok()) << "'" << spec << "' should not build";
  return result.ok() ? "" : result.status().message();
}

std::string StageError(const std::string& spec) {
  StatusOr<std::unique_ptr<pipeline::PipelineStage>> result =
      StageRegistry::Global().Create(spec);
  EXPECT_FALSE(result.ok()) << "'" << spec << "' should not build";
  return result.ok() ? "" : result.status().message();
}

std::string BuildError(const std::string& spec) {
  StatusOr<std::unique_ptr<pipeline::PipelinedBlocker>> result =
      pipeline::Build(spec);
  EXPECT_FALSE(result.ok()) << "'" << spec << "' should not build";
  return result.ok() ? "" : result.status().message();
}

TEST(BlockerStatusOrTest, OkPathYieldsAWorkingTechnique) {
  StatusOr<std::unique_ptr<core::BlockingTechnique>> result =
      BlockerRegistry::Global().Create("tblo:attrs=name");
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_NE(*result, nullptr);
  EXPECT_FALSE((*result)->name().empty());
}

TEST(BlockerStatusOrTest, UnknownTechniqueNamesItAndListsTheRegistry) {
  std::string message = BlockerError("nope:attrs=name");
  EXPECT_NE(message.find("unknown technique 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("tblo"), std::string::npos) << message;
}

TEST(BlockerStatusOrTest, BadParamTypeNamesTheParam) {
  std::string message = BlockerError("sor-a:window=huge,attrs=name");
  EXPECT_NE(message.find("param 'window'"), std::string::npos) << message;
  EXPECT_NE(message.find("expected integer"), std::string::npos) << message;
}

TEST(BlockerStatusOrTest, OutOfRangeParamValueIsDiagnosed) {
  std::string message = BlockerError("sor-a:window=1,attrs=name");
  EXPECT_NE(message.find("window"), std::string::npos) << message;
}

TEST(BlockerStatusOrTest, UnknownParamIsDiagnosed) {
  std::string message = BlockerError("tblo:bogus=1,attrs=name");
  EXPECT_NE(message.find("unknown param(s) 'bogus'"), std::string::npos)
      << message;
}

TEST(BlockerStatusOrTest, DuplicateParamIsDiagnosed) {
  std::string message = BlockerError("tblo:attrs=name,attrs=title");
  EXPECT_NE(message.find("given more than once"), std::string::npos)
      << message;
}

TEST(StageStatusOrTest, OkPathYieldsAStage) {
  StatusOr<std::unique_ptr<pipeline::PipelineStage>> result =
      StageRegistry::Global().Create("purge:max_size=5");
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_NE(*result, nullptr);
}

TEST(StageStatusOrTest, UnknownStageNamesItAndListsTheRegistry) {
  std::string message = StageError("nope:x=1");
  EXPECT_NE(message.find("unknown stage 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("purge"), std::string::npos) << message;
}

TEST(StageStatusOrTest, StageParamValidationSurfacesAsStatus) {
  std::string message = StageError("progressive:pairs=0");
  EXPECT_NE(message.find("pairs"), std::string::npos) << message;
}

TEST(IndexStatusOrTest, OkPathYieldsAnIndex) {
  StatusOr<std::unique_ptr<index::IncrementalIndex>> result =
      index::IndexRegistry::Global().Create("token:attrs=name");
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_NE(*result, nullptr);
}

TEST(IndexStatusOrTest, UnknownIndexNamesItAndListsTheRegistry) {
  StatusOr<std::unique_ptr<index::IncrementalIndex>> result =
      index::IndexRegistry::Global().Create("nope:attrs=name");
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("unknown index 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("sa-lsh"), std::string::npos) << message;
}

TEST(PipelineBuildStatusOrTest, OkPathBuildsTheFullChain) {
  StatusOr<std::unique_ptr<pipeline::PipelinedBlocker>> result =
      pipeline::Build("tblo:attrs=name | purge:max_size=9");
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_NE(*result, nullptr);
  EXPECT_NE((*result)->name().find("purge"), std::string::npos);
}

TEST(PipelineBuildStatusOrTest, EmptySegmentIsDiagnosedWithItsPosition) {
  std::string message = BuildError("tblo:attrs=name |  | purge:max_size=9");
  EXPECT_NE(message.find("segment 2"), std::string::npos) << message;
  EXPECT_NE(message.find("is empty"), std::string::npos) << message;
}

TEST(PipelineBuildStatusOrTest, UnknownBlockerIsAttributedToTheBlockerSlot) {
  std::string message = BuildError("nope:attrs=name | purge:max_size=9");
  EXPECT_NE(message.find("unknown technique 'nope'"), std::string::npos)
      << message;
}

TEST(PipelineBuildStatusOrTest, UnknownStageIsAttributedToItsSlot) {
  std::string message = BuildError("tblo:attrs=name | nope:x=1");
  EXPECT_NE(message.find("unknown stage 'nope'"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace sablock
