// Tests for Schema / Record / Dataset.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"

namespace sablock::data {
namespace {

Dataset TwoColumnDataset() {
  Dataset d{Schema({"name", "city"})};
  d.Add({{"alice", "berlin"}}, 0);
  d.Add({{"alicia", "berlin"}}, 0);
  d.Add({{"bob", "paris"}}, 1);
  d.Add({{"carol", ""}}, kUnknownEntity);
  return d;
}

TEST(SchemaTest, IndexLookup) {
  Schema s({"a", "b", "c"});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("c"), 2);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_EQ(s.RequireIndex("b"), 1u);
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d = TwoColumnDataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.Value(0, "name"), "alice");
  EXPECT_EQ(d.Value(2, "city"), "paris");
  EXPECT_EQ(d.Value(0, "missing_attr"), "");
  EXPECT_EQ(d.entity(0), 0u);
  EXPECT_EQ(d.entity(3), kUnknownEntity);
}

TEST(DatasetTest, IsMatchRequiresKnownEqualEntities) {
  Dataset d = TwoColumnDataset();
  EXPECT_TRUE(d.IsMatch(0, 1));
  EXPECT_FALSE(d.IsMatch(0, 2));
  EXPECT_FALSE(d.IsMatch(0, 3));  // unknown entity never matches
  EXPECT_FALSE(d.IsMatch(3, 3));
}

TEST(DatasetTest, ConcatenatedValuesNormalizes) {
  Dataset d{Schema({"x", "y"})};
  d.Add({{"Foo-Bar", "BAZ!"}});
  EXPECT_EQ(d.ConcatenatedValues(0, {"x", "y"}), "foo bar baz");
  EXPECT_EQ(d.ConcatenatedValues(0, {"y"}), "baz");
  EXPECT_EQ(d.ConcatenatedValues(0, {"missing"}), "");
}

TEST(DatasetTest, ConcatenatedValuesSkipsEmpty) {
  Dataset d{Schema({"x", "y"})};
  d.Add({{"", "b"}});
  EXPECT_EQ(d.ConcatenatedValues(0, {"x", "y"}), "b");
}

TEST(DatasetTest, CountTrueMatchPairs) {
  Dataset d = TwoColumnDataset();
  // Cluster sizes: {2, 1, 1-unknown} -> 1 pair.
  EXPECT_EQ(d.CountTrueMatchPairs(), 1u);
  EXPECT_EQ(d.TotalPairs(), 6u);
}

TEST(DatasetTest, CountTrueMatchPairsLargerClusters) {
  Dataset d{Schema({"a"})};
  for (int i = 0; i < 4; ++i) d.Add({{"x"}}, 7);
  for (int i = 0; i < 3; ++i) d.Add({{"y"}}, 8);
  EXPECT_EQ(d.CountTrueMatchPairs(), 6u + 3u);
}

TEST(DatasetTest, PrefixSubset) {
  Dataset d = TwoColumnDataset();
  Dataset p = d.Prefix(2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.Value(1, "name"), "alicia");
  EXPECT_EQ(p.entity(1), 0u);
  // Prefix larger than the dataset is the whole dataset.
  EXPECT_EQ(d.Prefix(100).size(), 4u);
  EXPECT_EQ(d.Prefix(0).size(), 0u);
}

TEST(DatasetTest, SliceOffsetsRecordIds) {
  Dataset d = TwoColumnDataset();
  Dataset s = d.Slice(1, 3);
  ASSERT_EQ(s.size(), 2u);
  // Slice-local id i is global id begin + i.
  EXPECT_EQ(s.Value(0, "name"), "alicia");
  EXPECT_EQ(s.Value(1, "name"), "bob");
  EXPECT_EQ(s.entity(0), 0u);
  EXPECT_EQ(s.entity(1), 1u);
  // End clamped to the dataset; degenerate ranges are empty.
  EXPECT_EQ(d.Slice(2, 100).size(), 2u);
  EXPECT_EQ(d.Slice(3, 3).size(), 0u);
  EXPECT_EQ(d.Slice(100, 200).size(), 0u);
}

TEST(DatasetTest, EmptyDataset) {
  Dataset d{Schema({"a"})};
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.CountTrueMatchPairs(), 0u);
  EXPECT_EQ(d.TotalPairs(), 0u);
}

TEST(DatasetTest, ValuesSpanAlignsWithSchema) {
  Dataset d = TwoColumnDataset();
  std::span<const std::string_view> row = d.Values(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "alicia");
  EXPECT_EQ(row[1], "berlin");
  Record materialized = d.record(1);
  EXPECT_EQ(materialized.values,
            (std::vector<std::string>{"alicia", "berlin"}));
}

TEST(DatasetTest, AddRowCopiesViewsIntoOwnArena) {
  Dataset a = TwoColumnDataset();
  Dataset b{a.schema()};
  for (RecordId id = 0; id < a.size(); ++id) {
    b.AddRow(a.Values(id), a.entity(id));
  }
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(b.Value(2, "city"), "paris");
  // b owns its bytes: they live in b's arena, not a's.
  EXPECT_NE(b.Value(0, "name").data(), a.Value(0, "name").data());
}

TEST(DatasetTest, VersionCountsMutations) {
  Dataset d{Schema({"name", "city"})};
  EXPECT_EQ(d.version(), 0u);
  d.Add({{"alice", "berlin"}}, 0);
  EXPECT_EQ(d.version(), 1u);
  std::vector<std::string> values = {"bob", "paris"};
  std::vector<std::string_view> views = {values.begin(), values.end()};
  d.AddRow(views, 1);
  EXPECT_EQ(d.version(), 2u);
  // Copies and slices inherit the version (they carry the same records,
  // so an inherited FeatureStore snapshot is equally fresh for them).
  Dataset copy = d;
  EXPECT_EQ(copy.version(), d.version());
  EXPECT_EQ(d.Slice(0, 2).version(), d.version());
  EXPECT_EQ(d.ColdCopy().version(), d.version());
  copy.Add({{"carol", "oslo"}}, 2);
  EXPECT_EQ(copy.version(), 3u);
  EXPECT_EQ(d.version(), 2u);  // independent counters after the copy
}

TEST(DatasetTest, SliceSharesArenaWithoutCopyingBytes) {
  Dataset d = TwoColumnDataset();
  const size_t bytes_before = d.arena_bytes();
  Dataset s = d.Slice(1, 3);
  // The slice's value views alias the parent's arena bytes exactly — no
  // record bytes were copied.
  EXPECT_EQ(s.Value(0, "name").data(), d.Value(1, "name").data());
  EXPECT_EQ(s.Value(1, "city").data(), d.Value(2, "city").data());
  EXPECT_EQ(s.arena_bytes(), bytes_before);

  // ...and the parent can go away: the shared arena keeps views alive.
  Dataset kept = TwoColumnDataset().Slice(0, 2);
  EXPECT_EQ(kept.Value(0, "name"), "alice");
  EXPECT_EQ(kept.Value(1, "city"), "berlin");
}

TEST(DatasetTest, ColdCopySharesArenaButNotFeatures) {
  Dataset d = TwoColumnDataset();
  Dataset cold = d.ColdCopy();
  EXPECT_EQ(cold.size(), d.size());
  EXPECT_EQ(cold.Value(0, "name").data(), d.Value(0, "name").data());
}

TEST(SchemaTest, WideSchemaLookupsStayCorrect) {
  // The name->index map must agree with positional order for wide
  // schemas (the hash-map fast path replacing the linear scan).
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) names.push_back("attr" + std::to_string(i));
  Schema s(names);
  EXPECT_EQ(s.IndexOf("attr0"), 0);
  EXPECT_EQ(s.IndexOf("attr199"), 199);
  EXPECT_EQ(s.IndexOf("attr42"), 42);
  EXPECT_EQ(s.IndexOf("nope"), -1);
}

}  // namespace
}  // namespace sablock::data
