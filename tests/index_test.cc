// Unit tests for the incremental-index layer: Bind validation, Query
// semantics (including the sorted-neighbourhood window math), Remove
// behavior, and the IndexRegistry spec grammar. Cross-checks against the
// batch techniques live in index_parity_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "baselines/blocking_key.h"
#include "core/blocking.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "index/lsh_index.h"
#include "index/sorted_index.h"
#include "index/token_index.h"

namespace sablock::index {
namespace {

using Ids = std::vector<data::RecordId>;

data::Schema TwoAttrSchema() { return data::Schema({"name", "city"}); }

std::vector<std::string_view> Row(const std::vector<std::string>& values) {
  return {values.begin(), values.end()};
}

TEST(TokenIndexTest, BindRejectsMissingAttribute) {
  TokenPostingsIndex index({"name", "zip"});
  Status s = index.Bind(TwoAttrSchema());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("zip"), std::string::npos);
}

TEST(TokenIndexTest, QueryReturnsTokenSharers) {
  TokenPostingsIndex index({"name", "city"});
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  std::vector<std::string> c = {"Carol", "Berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(b));
  index.Insert(2, Row(c));
  EXPECT_EQ(index.size(), 3u);

  std::vector<std::string> probe = {"Dan Smith", "berlin!"};
  // Shares "smith" with 0 and 1, "berlin" with 0 and 2 (normalization
  // strips punctuation/case). Sorted distinct ids.
  EXPECT_EQ(index.Query(Row(probe)), (Ids{0, 1, 2}));
  std::vector<std::string> nothing = {"Zed", "Oslo"};
  EXPECT_TRUE(index.Query(Row(nothing)).empty());
}

TEST(TokenIndexTest, RemoveUnindexes) {
  TokenPostingsIndex index({"name", "city"});
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"Alice", "Berlin"};
  std::vector<std::string> b = {"Bob", "Berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(b));
  EXPECT_TRUE(index.Remove(0));
  EXPECT_FALSE(index.Remove(0));  // already gone
  EXPECT_EQ(index.size(), 1u);
  std::vector<std::string> probe = {"X", "Berlin"};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{1}));
  // The surviving singleton posting emits no block.
  core::BlockCollection blocks = CollectBlocks(index);
  EXPECT_EQ(blocks.NumBlocks(), 0u);
}

TEST(SortedIndexTest, QueryWindowMath) {
  // Keys sort as a < b < c < d (ids 0..3). With window w the probe sees
  // the w-1 predecessors and w-2 successors of its sort position.
  SortedWindowIndex index(baselines::ExactKey({"name"}), 2);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  for (data::RecordId id = 0; id < 4; ++id) {
    std::vector<std::string> row = {std::string(1, 'a' + id), ""};
    index.Insert(id, Row(row));
  }
  // Probe key "bb" sorts between b (pos 1) and c (pos 2): probe position
  // 2, window 2 -> predecessors {b}, successors {} plus the record at the
  // probe's own slot... window [p-1, p] = positions 1..2 = {b, c}.
  std::vector<std::string> probe = {"bb", ""};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{1, 2}));
  // A probe smaller than everything: position 0, window covers only c0.
  std::vector<std::string> first = {"0", ""};
  EXPECT_EQ(index.Query(Row(first)), (Ids{0}));
}

TEST(SortedIndexTest, OversizedWindowReturnsEverything) {
  SortedWindowIndex index(baselines::ExactKey({"name"}), 10);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  for (data::RecordId id = 0; id < 3; ++id) {
    std::vector<std::string> row = {std::string(1, 'z' - id), ""};
    index.Insert(id, Row(row));
  }
  std::vector<std::string> probe = {"m", ""};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{0, 1, 2}));
}

TEST(SortedIndexTest, EqualKeysOrderByIdLikeStableSort) {
  SortedWindowIndex index(baselines::ExactKey({"name"}), 2);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> same = {"same", ""};
  index.Insert(0, Row(same));
  index.Insert(1, Row(same));
  index.Insert(2, Row(same));
  // Sliding window of 2 over the id-ordered run: {0,1}, {1,2}.
  core::BlockCollection blocks = CollectBlocks(index);
  ASSERT_EQ(blocks.NumBlocks(), 2u);
  EXPECT_EQ(blocks.blocks()[0], (Ids{0, 1}));
  EXPECT_EQ(blocks.blocks()[1], (Ids{1, 2}));
}

TEST(LshIndexTest, IdenticalRecordsCollide) {
  core::LshParams params;
  params.k = 2;
  params.l = 4;
  params.q = 2;
  params.attributes = {"name", "city"};
  LshIndex index(params);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"alice example", "berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(a));
  EXPECT_EQ(index.Query(Row(a)), (Ids{0, 1}));
  EXPECT_TRUE(index.Remove(1));
  EXPECT_EQ(index.Query(Row(a)), (Ids{0}));
}

TEST(LshIndexTest, EmptyTextIsExcluded) {
  core::LshParams params;
  params.k = 2;
  params.l = 4;
  params.q = 2;
  params.attributes = {"name"};
  LshIndex index(params);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> empty = {"", "berlin"};
  index.Insert(0, Row(empty));
  index.Insert(1, Row(empty));
  EXPECT_EQ(index.size(), 2u);
  // Empty blocking text yields the empty-signature sentinel: never
  // bucketed, never a candidate (matching the batch LshBlocker).
  EXPECT_TRUE(index.Query(Row(empty)).empty());
  EXPECT_EQ(CollectBlocks(index).NumBlocks(), 0u);
  EXPECT_TRUE(index.Remove(0));
}

TEST(IndexRegistryTest, ListContainsAndAliases) {
  IndexRegistry& registry = IndexRegistry::Global();
  EXPECT_TRUE(registry.Contains("lsh"));
  EXPECT_TRUE(registry.Contains("sa-lsh"));
  EXPECT_TRUE(registry.Contains("salsh"));   // alias
  EXPECT_TRUE(registry.Contains("token"));   // alias
  EXPECT_TRUE(registry.Contains("sorted"));  // alias
  EXPECT_FALSE(registry.Contains("nope"));
  std::vector<api::BlockerInfo> entries = registry.List();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
}

TEST(IndexRegistryTest, CreateFromSpecString) {
  std::unique_ptr<IncrementalIndex> index;
  Status s = IndexRegistry::Global().Create(
      "token:attrs=name+city", &index);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(index->Bind(TwoAttrSchema()).ok());
}

TEST(IndexRegistryTest, RejectsUnknownNameAndBadParams) {
  std::unique_ptr<IncrementalIndex> index;
  EXPECT_FALSE(IndexRegistry::Global().Create("nope", &index).ok());
  EXPECT_FALSE(IndexRegistry::Global().Create("lsh:k=0", &index).ok());
  EXPECT_FALSE(
      IndexRegistry::Global().Create("sor-a:window=1", &index).ok());
  EXPECT_FALSE(
      IndexRegistry::Global().Create("lsh:bogus-param=3", &index).ok());
}

/// The diagnostic `spec` gets from `registry` ("" if it builds).
template <typename Registry>
std::string CreateError(const Registry& registry, const std::string& spec) {
  auto result = registry.Create(spec);
  return result.ok() ? "" : result.status().message();
}

TEST(IndexRegistryTest, DefinitionsMatchTheBatchTechniques) {
  // One spec string must mean the same thing on both sides: every index
  // has a batch technique of the same canonical name, aliases and params.
  const api::BlockerRegistry& batch = api::BlockerRegistry::Global();
  std::vector<api::BlockerInfo> techniques = batch.List();
  for (const api::BlockerInfo& index_info : IndexRegistry::Global().List()) {
    SCOPED_TRACE(index_info.name);
    auto it = std::find_if(techniques.begin(), techniques.end(),
                           [&](const api::BlockerInfo& info) {
                             return info.name == index_info.name;
                           });
    ASSERT_NE(it, techniques.end());
    EXPECT_EQ(it->aliases, index_info.aliases);
    ASSERT_EQ(it->params.size(), index_info.params.size());
    for (size_t i = 0; i < it->params.size(); ++i) {
      EXPECT_EQ(it->params[i].name, index_info.params[i].name);
      EXPECT_EQ(it->params[i].default_value,
                index_info.params[i].default_value);
      EXPECT_EQ(it->params[i].help, index_info.params[i].help);
    }
  }
}

TEST(IndexRegistryTest, BadSpecsGetTheBatchDiagnostic) {
  const api::BlockerRegistry& batch = api::BlockerRegistry::Global();
  const IndexRegistry& serving = IndexRegistry::Global();
  for (const char* spec :
       {"lsh:k=0", "sa-lsh:w=0", "sor-a:window=1", "lsh:k=65536,l=65536",
        "sa-lsh:k=300,l=300", "token-blocking:bogus=1", "lsh:k=banana"}) {
    std::string message = CreateError(serving, spec);
    EXPECT_FALSE(message.empty()) << spec;
    EXPECT_EQ(message, CreateError(batch, spec)) << spec;
  }
  // Only the noun of an unknown name differs.
  EXPECT_EQ(CreateError(serving, "nope").find("unknown index 'nope'"), 0u);
  EXPECT_EQ(CreateError(batch, "nope").find("unknown technique 'nope'"), 0u);
}

TEST(IndexRegistryTest, OverflowingLshProductIsARangeError) {
  // k*l used to overflow int in the LshIndex constructor and abort in
  // MinHasher; the shared LSH reader now rejects it on both sides.
  const std::string expected =
      "lsh: params 'k', 'l': k*l must be <= 65536 minhash rows per record";
  EXPECT_EQ(CreateError(IndexRegistry::Global(), "lsh:k=65536,l=65536"),
            expected);
  EXPECT_EQ(CreateError(api::BlockerRegistry::Global(),
                        "lsh:k=65536,l=65536"),
            expected);
  EXPECT_EQ(CreateError(IndexRegistry::Global(), "lsh:k=256,l=256"), "");
}

}  // namespace
}  // namespace sablock::index
