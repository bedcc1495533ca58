// Tests for the shared feature-extraction layer: column correctness
// against direct recomputation, build-exactly-once semantics under
// concurrent getters (a tools/check.sh --tsan target), zero-copy slices
// sharing the parent's arena and store, and cache invalidation on Add.

#include "features/feature_store.h"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/minhash.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "gtest/gtest.h"
#include "text/qgram.h"

namespace sablock::features {
namespace {

data::Dataset TinyDataset() {
  data::Dataset d{data::Schema({"name", "city"})};
  d.Add({{"Ada Lovelace", "London"}}, 0);
  d.Add({{"A. Lovelace", "london"}}, 0);
  d.Add({{"Grace Hopper", "New York"}}, 1);
  d.Add({{"", ""}}, data::kUnknownEntity);
  return d;
}

const std::vector<std::string>& NameCity() {
  static const std::vector<std::string> attrs = {"name", "city"};
  return attrs;
}

TEST(FeatureStoreTest, TextColumnMatchesConcatenatedValues) {
  data::Dataset d = TinyDataset();
  FeatureView::TextHandle texts = d.features().TextsFor(NameCity());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_EQ(texts.Text(id), d.ConcatenatedValues(id, NameCity())) << id;
  }
}

TEST(FeatureStoreTest, TokenColumnInternsSortedDistinctTokens) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  FeatureView::TokenHandle tokens = features.TokensFor(NameCity());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::vector<TokenId>& ids = tokens.Tokens(id);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    // Interned strings round-trip to the distinct words of the text.
    std::vector<std::string> words =
        SplitWords(d.ConcatenatedValues(id, NameCity()));
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::vector<std::string> from_ids;
    for (TokenId t : ids) {
      EXPECT_LT(t, tokens.token_limit());
      from_ids.push_back(features.store().Token(tokens.GlobalId(t)));
    }
    std::sort(from_ids.begin(), from_ids.end());
    EXPECT_EQ(from_ids, words) << id;
  }
}

TEST(FeatureStoreTest, TokenIdsAreColumnLocalAndDense) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  FeatureView::TokenHandle wide = features.TokensFor(NameCity());
  FeatureView::TokenHandle narrow = features.TokensFor({"city"});
  // The narrow column's ids stay dense in its own vocabulary even though
  // the shared dictionary already holds the wide column's tokens.
  EXPECT_LT(narrow.token_limit(), wide.token_limit());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    for (TokenId t : narrow.Tokens(id)) {
      EXPECT_LT(t, narrow.token_limit());
    }
  }
}

TEST(FeatureStoreTest, TextColumnsDoNotPayForTokenization) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  features.TextsFor(NameCity());
  features.TextsFor({"name"});
  // Text-only consumers (blocking keys) never touch the token dictionary.
  EXPECT_EQ(features.store().NumInternedTokens(), 0u);
  EXPECT_EQ(features.store().stats().token_builds, 0u);
  features.TokensFor(NameCity());
  EXPECT_GT(features.store().NumInternedTokens(), 0u);
  EXPECT_EQ(features.store().stats().token_builds, 1u);
}

TEST(FeatureStoreTest, ShingleColumnMatchesQGramHashes) {
  data::Dataset d = TinyDataset();
  FeatureView::ShingleHandle shingles = d.features().ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_EQ(shingles.Shingles(id),
              text::QGramHashes(d.ConcatenatedValues(id, NameCity()), 3))
        << id;
  }
}

TEST(FeatureStoreTest, SignatureColumnMatchesDirectMinhash) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  FeatureView::SignatureHandle sigs =
      features.SignaturesFor(NameCity(), 3, 16, 7);
  core::MinHasher hasher(16, 7);
  FeatureView::ShingleHandle shingles = features.ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    std::span<const uint64_t> row = sigs.Signature(id);
    EXPECT_EQ(std::vector<uint64_t>(row.begin(), row.end()),
              hasher.Signature(shingles.Shingles(id)))
        << id;
  }
}

// Names and cities over a small pool: thousands of records share a few
// hundred distinct bigrams. Every 50th record has empty text.
data::Dataset PooledNames(size_t records) {
  static const char* const kFirst[] = {"ada", "grace", "alan",
                                       "edsger", "barbara", "donald"};
  static const char* const kLast[] = {"lovelace", "hopper", "turing",
                                      "dijkstra", "liskov", "knuth"};
  static const char* const kCity[] = {"london", "new york", "paris"};
  data::Dataset d{data::Schema({"name", "city"})};
  for (size_t i = 0; i < records; ++i) {
    if (i % 50 == 7) {
      d.Add({{"", ""}});
      continue;
    }
    d.Add({{std::string(kFirst[i % 6]) + " " + kLast[(i / 6) % 6],
            kCity[(i / 36) % 3]}});
  }
  return d;
}

size_t DistinctShingles(const data::Dataset& d,
                        const std::vector<std::string>& attrs, int q) {
  std::set<uint64_t> all;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    for (uint64_t s : text::QGramHashes(d.ConcatenatedValues(id, attrs), q)) {
      all.insert(s);
    }
  }
  return all.size();
}

// Builds the 135-slot signature column of a fresh store under `threads`
// workers, checks every row against MinHasher::SignatureInto on the
// record's own shingles, and returns how many builds took the table path.
uint64_t ExpectRowsMatchPerRecordMinhash(const data::Dataset& d,
                                         const std::vector<std::string>& attrs,
                                         int threads) {
  constexpr int kHashes = 135;
  FeatureStore store(d);
  {
    ParallelScope workers(threads);
    store.Signatures(attrs, 2, kHashes, 7);
  }
  const SignatureColumn& column = store.Signatures(attrs, 2, kHashes, 7);
  core::MinHasher hasher(kHashes, 7);
  std::vector<uint64_t> want(kHashes);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    hasher.SignatureInto(
        text::QGramHashes(d.ConcatenatedValues(id, attrs), 2), want);
    std::span<const uint64_t> got = column.Row(id);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "record " << id << " threads " << threads;
  }
  return store.stats().signature_table_builds;
}

TEST(FeatureStoreTest, SignatureTablePathMatchesPerRecordMinhash) {
  data::Dataset d = PooledNames(3000);
  ASSERT_LE(DistinctShingles(d, NameCity(), 2) * 8, d.size());
  for (int threads : {1, 4}) {
    EXPECT_EQ(ExpectRowsMatchPerRecordMinhash(d, NameCity(), threads), 1u);
  }
}

TEST(FeatureStoreTest, SignatureDirectPathMatchesPerRecordMinhash) {
  data::CoraGeneratorConfig config;
  config.num_entities = 100;
  config.num_records = 600;
  config.seed = 7;
  data::Dataset d = data::GenerateCoraLike(config);
  const std::vector<std::string> attrs = {"authors", "title"};
  ASSERT_GT(DistinctShingles(d, attrs, 2) * 8, d.size());
  for (int threads : {1, 4}) {
    EXPECT_EQ(ExpectRowsMatchPerRecordMinhash(d, attrs, threads), 0u);
  }
}

TEST(FeatureStoreTest, SignatureTablePathBoundaryIsDistinctTimesEight) {
  // Pad a pooled dataset with empty-text records (no shingles) up to
  // exactly distinct × 8 records: the table path is taken there and not
  // one record below it.
  data::Dataset base = PooledNames(300);
  const size_t distinct = DistinctShingles(base, NameCity(), 2);
  ASSERT_LT(base.size(), distinct * 8 - 1);
  for (size_t records : {distinct * 8, distinct * 8 - 1}) {
    data::Dataset d = PooledNames(300);
    while (d.size() < records) d.Add({{"", ""}});
    ASSERT_EQ(DistinctShingles(d, NameCity(), 2), distinct);
    const uint64_t want_table = records == distinct * 8 ? 1 : 0;
    for (int threads : {1, 4}) {
      EXPECT_EQ(ExpectRowsMatchPerRecordMinhash(d, NameCity(), threads),
                want_table)
          << records << " records";
    }
  }
}

TEST(FeatureStoreTest, DistinctKeysAreDistinctColumns) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  // Different q, attribute subsets, hash counts and seeds are all
  // separate cache entries.
  features.ShinglesFor(NameCity(), 2);
  features.ShinglesFor(NameCity(), 3);
  features.ShinglesFor({"name"}, 2);
  features.SignaturesFor(NameCity(), 2, 8, 7);
  features.SignaturesFor(NameCity(), 2, 8, 11);
  FeatureStore::Stats stats = features.store().stats();
  EXPECT_EQ(stats.shingle_builds, 3u);
  EXPECT_EQ(stats.signature_builds, 2u);
}

TEST(FeatureStoreTest, EightThreadsRacingGettersBuildEachCacheOnce) {
  data::CoraGeneratorConfig config;
  config.num_entities = 10;
  config.num_records = 100;
  config.seed = 7;
  data::Dataset d = data::GenerateCoraLike(config);
  const std::vector<std::string> attrs = {"authors", "title"};

  constexpr int kThreads = 8;
  std::vector<const TextColumn*> text_cols(kThreads);
  std::vector<const TokenColumn*> token_cols(kThreads);
  std::vector<const ShingleColumn*> shingle_cols(kThreads);
  std::vector<const SignatureColumn*> sig_cols(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const FeatureStore& store = d.features().store();
        text_cols[t] = &store.Texts(attrs);
        token_cols[t] = &store.Tokens(attrs);
        shingle_cols[t] = &store.Shingles(attrs, 4);
        sig_cols[t] = &store.Signatures(attrs, 4, 64, 7);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // One build per cache, and every thread observed the same column.
  FeatureStore::Stats stats = d.features().store().stats();
  EXPECT_EQ(stats.text_builds, 1u);
  EXPECT_EQ(stats.token_builds, 1u);
  EXPECT_EQ(stats.shingle_builds, 1u);
  EXPECT_EQ(stats.signature_builds, 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(text_cols[t], text_cols[0]);
    EXPECT_EQ(token_cols[t], token_cols[0]);
    EXPECT_EQ(shingle_cols[t], shingle_cols[0]);
    EXPECT_EQ(sig_cols[t], sig_cols[0]);
  }
  EXPECT_EQ(sig_cols[0]->rows.size(), d.size() * 64);
}

TEST(FeatureStoreTest, SlicesShareTheParentStoreWithOffset) {
  data::Dataset d = TinyDataset();
  FeatureView parent = d.features();  // materialize before slicing
  FeatureView::ShingleHandle parent_shingles =
      parent.ShinglesFor(NameCity(), 3);

  data::Dataset slice = d.Slice(1, 3);
  FeatureView sliced = slice.features();
  EXPECT_EQ(&sliced.store(), &parent.store());
  FeatureView::ShingleHandle slice_shingles =
      sliced.ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < slice.size(); ++id) {
    EXPECT_EQ(&slice_shingles.Shingles(id),
              &parent_shingles.Shingles(id + 1));
  }
  // No rebuild happened for the slice.
  EXPECT_EQ(parent.store().stats().shingle_builds, 1u);

  // Nested slices compose offsets.
  data::Dataset nested = slice.Slice(1, 2);
  FeatureView::ShingleHandle nested_shingles =
      nested.features().ShinglesFor(NameCity(), 3);
  EXPECT_EQ(&nested_shingles.Shingles(0), &parent_shingles.Shingles(2));
}

TEST(FeatureStoreTest, SliceOfColdDatasetBuildsItsOwnCorrectStore) {
  data::Dataset d = TinyDataset();
  data::Dataset slice = d.Slice(1, 3);  // parent store never materialized
  FeatureView features = slice.features();
  EXPECT_EQ(features.size(), 2u);
  FeatureView::TextHandle texts = features.TextsFor(NameCity());
  for (data::RecordId id = 0; id < slice.size(); ++id) {
    EXPECT_EQ(texts.Text(id), d.ConcatenatedValues(id + 1, NameCity()));
  }
}

TEST(FeatureStoreTest, AddInvalidatesTheFeatureCache) {
  data::Dataset d = TinyDataset();
  FeatureView before = d.features();
  EXPECT_EQ(before.size(), 4u);
  d.Add({{"Katherine Johnson", "Hampton"}}, 2);
  FeatureView after = d.features();
  EXPECT_EQ(after.size(), 5u);
  EXPECT_NE(&after.store(), &before.store());
  EXPECT_EQ(after.TextsFor(NameCity()).Text(4), "katherine johnson hampton");
}

TEST(FeatureStoreTest, AddRowInvalidatesTheFeatureCache) {
  // The serving-path mutation: AddRow (raw views, as CandidateService
  // uses) must version-bump and invalidate exactly like Add, so a grown
  // dataset never serves stale tokens/signatures.
  data::Dataset d = TinyDataset();
  const uint64_t version_before = d.version();
  FeatureView before = d.features();
  std::vector<std::string> values = {"Katherine Johnson", "Hampton"};
  std::vector<std::string_view> views = {values.begin(), values.end()};
  d.AddRow(views, 2);
  EXPECT_GT(d.version(), version_before);
  FeatureView after = d.features();
  EXPECT_EQ(after.size(), 5u);
  EXPECT_NE(&after.store(), &before.store());
  EXPECT_EQ(after.TextsFor(NameCity()).Text(4), "katherine johnson hampton");
  EXPECT_EQ(after.store().dataset_version(), d.version());
}

TEST(FeatureStoreTest, HandlesCoOwnTheStoreAcrossInvalidation) {
  data::Dataset d = TinyDataset();
  FeatureView::ShingleHandle shingles =
      d.features().ShinglesFor(NameCity(), 3);
  std::vector<uint64_t> before = shingles.Shingles(0);
  // Add drops the dataset's pointer to the old store; the handle keeps
  // the snapshot alive and keeps serving pre-Add features.
  d.Add({{"Katherine Johnson", "Hampton"}}, 2);
  EXPECT_EQ(shingles.Shingles(0), before);
  // A handle obtained through a temporary slice is equally safe.
  FeatureView::TextHandle texts =
      d.Slice(0, 2).features().TextsFor(NameCity());
  EXPECT_EQ(texts.Text(0), "ada lovelace london");
}

TEST(FeatureStoreTest, StoreOutlivesTheOriginatingDataset) {
  FeatureView features;
  {
    data::Dataset d = TinyDataset();
    features = d.features();
    features.TextsFor(NameCity());
  }
  // The view's shared_ptr keeps the store (and its arena snapshot) alive.
  EXPECT_EQ(features.TextsFor(NameCity()).Text(2), "grace hopper new york");
}

}  // namespace
}  // namespace sablock::features
