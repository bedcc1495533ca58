#ifndef SABLOCK_FEATURES_FEATURE_STORE_H_
#define SABLOCK_FEATURES_FEATURE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/record.h"

namespace sablock::features {

/// Interned id of one normalized whitespace token. Ids are dense indexes
/// into the store's token dictionary, assigned in interning order — stable
/// within one store, not comparable across stores.
using TokenId = uint32_t;

/// Per-record normalized blocking text for one attribute selection.
/// `texts[id]` is exactly Dataset::ConcatenatedValues(id, attributes).
struct TextColumn {
  std::vector<std::string> texts;
};

/// Per-record interned token sets for one attribute selection:
/// `tokens[id]` holds the distinct whitespace tokens of the text column
/// as sorted *column-local* dense ids in [0, token_limit). Local ids are
/// assigned in first-encounter order within this column, so they are
/// deterministic regardless of what other columns interned first, and
/// posting arrays sized by token_limit cover exactly this column's
/// vocabulary. `global_ids[local]` maps back to the store dictionary
/// (FeatureStore::Token). Built on top of (and lazily after) the text
/// column, so text-only consumers (blocking keys) never pay for
/// tokenization or dictionary growth.
struct TokenColumn {
  std::vector<std::vector<TokenId>> tokens;
  std::vector<TokenId> global_ids;  // local id -> dictionary id
  uint32_t token_limit = 0;         // == global_ids.size()
};

/// Per-record sorted distinct q-gram shingle hashes for one
/// (attributes, q) selection — text::QGramHashes over the text column.
struct ShingleColumn {
  std::vector<std::vector<uint64_t>> sets;
};

/// Per-record minhash signatures for one (attributes, q, num_hashes,
/// seed) selection — core::MinHasher over the shingle column. Stored as
/// one flat row-major matrix (record-major, num_hashes slots per record)
/// in `rows`, whose storage `retain` keeps alive: the build's own
/// allocation (built columns) or a read-only snapshot mapping (adopted
/// columns — the matrix is served zero-copy straight out of the file).
struct SignatureColumn {
  uint32_t num_hashes = 0;
  std::span<const uint64_t> rows;      // records × num_hashes values
  std::shared_ptr<const void> retain;  // owner of the rows' storage

  std::span<const uint64_t> Row(size_t record) const {
    return rows.subspan(record * num_hashes, num_hashes);
  }
};

/// Shared feature-extraction cache attached to a Dataset (the "features"
/// layer between data and the blocking techniques). Columns are built
/// lazily, exactly once, and are immutable after publication:
///
///  - every getter double-checks through a per-column std::once_flag, so
///    concurrent readers of one store (a RunAllParallel sweep, service
///    threads) racing the same column share one build and block only
///    until it is published;
///  - distinct columns build independently (the registry map mutex is
///    held only to find/insert the entry, never while building);
///  - derived columns stack: token and shingle columns build on top of
///    text columns, signature columns on top of shingle columns — so the
///    string work of the legacy O(techniques × records) recomputation
///    collapses to O(records) per distinct attribute selection, and each
///    consumer pays only for the representation it actually reads;
///  - text, shingle and signature builds split their records over the
///    workers installed on the building thread (common/parallel.h), each
///    chunk writing only its own rows; token builds stay serial because
///    dictionary ids follow record order. Each build records one
///    `features.build.{text,shingle,signature,token}` span (its own
///    work, not the parent column it waits for).
///
/// The store snapshots the dataset it is attached to (sharing its string
/// arena, copying only value spans), so it stays valid independent of the
/// originating Dataset object's lifetime — slices hand out FeatureViews
/// into their parent's store long after the parent is gone.
class FeatureStore {
 public:
  explicit FeatureStore(const data::Dataset& dataset);
  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Records in the snapshot (== the root dataset's size).
  size_t size() const { return snapshot_.size(); }

  /// The snapshotted records (for feature builders and reference
  /// recomputation in tests).
  const data::Dataset& snapshot() const { return snapshot_; }

  /// Dataset::version() at snapshot time; Dataset::features() compares it
  /// against the live version to catch stale caches after mutations.
  uint64_t dataset_version() const { return dataset_version_; }

  const TextColumn& Texts(const std::vector<std::string>& attributes) const;
  const TokenColumn& Tokens(const std::vector<std::string>& attributes) const;
  const ShingleColumn& Shingles(const std::vector<std::string>& attributes,
                                int q) const;
  const SignatureColumn& Signatures(
      const std::vector<std::string>& attributes, int q, int num_hashes,
      uint64_t seed) const;

  /// Parameters of one built column, recorded at build/adopt time so the
  /// snapshot writer can enumerate exactly what was cached and persist it.
  struct ColumnParams {
    std::vector<std::string> attributes;
    int q = 0;           // shingle & signature columns
    int num_hashes = 0;  // signature columns only
    uint64_t seed = 0;   // signature columns only
  };

  /// The built-column catalog, one list per column kind, in publication
  /// order (deterministic for a single-threaded warm-up sequence).
  struct Catalog {
    std::vector<ColumnParams> texts;
    std::vector<ColumnParams> tokens;
    std::vector<ColumnParams> shingles;
    std::vector<ColumnParams> signatures;
  };
  Catalog catalog() const;

  // Snapshot-loader adoption: pre-publishes a column deserialized from a
  // snapshot so the first getter call is a cache hit instead of a build.
  // Adopt while the loader solely owns the store (before any getter can
  // race the same key); adopting an already-built column aborts.

  void AdoptTexts(const std::vector<std::string>& attributes,
                  TextColumn column);
  /// `local_tokens` is the column vocabulary in local-id order; the
  /// strings are re-interned into this store's dictionary to rebuild the
  /// local->global id map. `per_record[r]` holds record r's sorted
  /// distinct local ids, all < local_tokens.size().
  void AdoptTokens(const std::vector<std::string>& attributes,
                   std::vector<std::string> local_tokens,
                   std::vector<std::vector<TokenId>> per_record);
  void AdoptShingles(const std::vector<std::string>& attributes, int q,
                     ShingleColumn column);
  void AdoptSignatures(const std::vector<std::string>& attributes, int q,
                       int num_hashes, uint64_t seed, SignatureColumn column);

  /// The interned string of a token id (copy; dictionary access is
  /// serialized). Aborts on out-of-range ids.
  std::string Token(TokenId id) const;

  /// Current token dictionary size.
  size_t NumInternedTokens() const;

  /// Build counters, exposed so tests can assert each cache is built
  /// exactly once under concurrency.
  struct Stats {
    uint64_t text_builds = 0;
    uint64_t token_builds = 0;
    uint64_t shingle_builds = 0;
    uint64_t signature_builds = 0;
    /// Signature builds that took the distinct-shingle table path (see
    /// BuildSignatures); the rest hashed every record directly.
    uint64_t signature_table_builds = 0;
  };
  Stats stats() const;

 private:
  template <typename Column>
  struct Entry {
    std::once_flag once;
    Column column;
  };
  template <typename Column>
  using EntryMap =
      std::unordered_map<std::string, std::unique_ptr<Entry<Column>>>;

  template <typename Column>
  Entry<Column>& FindOrCreate(EntryMap<Column>& map,
                              const std::string& key) const;

  void RecordInCatalog(std::vector<ColumnParams> Catalog::* list,
                       const std::vector<std::string>& attributes, int q,
                       int num_hashes, uint64_t seed) const;

  void BuildTexts(const std::vector<std::string>& attributes,
                  TextColumn* out) const;
  void BuildTokens(const std::vector<std::string>& attributes,
                   TokenColumn* out) const;
  void BuildShingles(const std::vector<std::string>& attributes, int q,
                     ShingleColumn* out) const;
  void BuildSignatures(const std::vector<std::string>& attributes, int q,
                       int num_hashes, uint64_t seed,
                       SignatureColumn* out) const;

  data::Dataset snapshot_;
  uint64_t dataset_version_ = 0;

  mutable std::mutex map_mutex_;  // guards the entry maps + catalog
  mutable Catalog catalog_;
  mutable EntryMap<TextColumn> texts_;
  mutable EntryMap<TokenColumn> tokens_columns_;
  mutable EntryMap<ShingleColumn> shingles_;
  mutable EntryMap<SignatureColumn> signatures_;

  mutable std::mutex token_mutex_;  // guards the token dictionary
  mutable std::unordered_map<std::string, TokenId> token_ids_;
  mutable std::vector<std::string> tokens_;

  mutable std::atomic<uint64_t> text_builds_{0};
  mutable std::atomic<uint64_t> token_builds_{0};
  mutable std::atomic<uint64_t> shingle_builds_{0};
  mutable std::atomic<uint64_t> signature_builds_{0};
  mutable std::atomic<uint64_t> signature_table_builds_{0};
};

/// A dataset's window into a FeatureStore: translates the dataset's local
/// record ids to the store snapshot's ids (non-zero offset for a
/// Dataset::Slice) and keeps the store alive. Obtain one per
/// technique run via Dataset::features(), resolve the needed columns once
/// with the *For handles, then read per-record features O(1) in the hot
/// loop.
class FeatureView {
 public:
  FeatureView() = default;
  FeatureView(std::shared_ptr<const FeatureStore> store, size_t offset,
              size_t size)
      : store_(std::move(store)), offset_(offset), size_(size) {}

  /// Records visible through this view (the owning dataset's size).
  size_t size() const { return size_; }

  /// First store-snapshot record this view maps to (non-zero for slice
  /// views; the snapshot writer only persists whole-dataset stores).
  size_t offset() const { return offset_; }

  const FeatureStore& store() const { return *store_; }
  std::shared_ptr<const FeatureStore> store_ptr() const { return store_; }

  // Every handle co-owns the store: a handle stays valid even if the
  // originating Dataset mutates (Add resets its cache pointer) or was a
  // temporary (e.g. a one-statement Slice) — whoever holds the handle
  // keeps the snapshot alive.

  class TextHandle {
   public:
    std::string_view Text(data::RecordId id) const {
      return column_->texts[offset_ + id];
    }

   private:
    friend class FeatureView;
    TextHandle(std::shared_ptr<const FeatureStore> owner,
               const TextColumn* column, size_t offset)
        : owner_(std::move(owner)), column_(column), offset_(offset) {}
    std::shared_ptr<const FeatureStore> owner_;
    const TextColumn* column_;
    size_t offset_;
  };

  class TokenHandle {
   public:
    /// Sorted distinct column-local token ids, all < token_limit().
    const std::vector<TokenId>& Tokens(data::RecordId id) const {
      return column_->tokens[offset_ + id];
    }
    uint32_t token_limit() const { return column_->token_limit; }
    /// Store-dictionary id of a column-local id (for FeatureStore::Token).
    TokenId GlobalId(TokenId local) const {
      return column_->global_ids[local];
    }

   private:
    friend class FeatureView;
    TokenHandle(std::shared_ptr<const FeatureStore> owner,
                const TokenColumn* column, size_t offset)
        : owner_(std::move(owner)), column_(column), offset_(offset) {}
    std::shared_ptr<const FeatureStore> owner_;
    const TokenColumn* column_;
    size_t offset_;
  };

  class ShingleHandle {
   public:
    const std::vector<uint64_t>& Shingles(data::RecordId id) const {
      return column_->sets[offset_ + id];
    }

   private:
    friend class FeatureView;
    ShingleHandle(std::shared_ptr<const FeatureStore> owner,
                  const ShingleColumn* column, size_t offset)
        : owner_(std::move(owner)), column_(column), offset_(offset) {}
    std::shared_ptr<const FeatureStore> owner_;
    const ShingleColumn* column_;
    size_t offset_;
  };

  class SignatureHandle {
   public:
    std::span<const uint64_t> Signature(data::RecordId id) const {
      return column_->Row(offset_ + id);
    }

   private:
    friend class FeatureView;
    SignatureHandle(std::shared_ptr<const FeatureStore> owner,
                    const SignatureColumn* column, size_t offset)
        : owner_(std::move(owner)), column_(column), offset_(offset) {}
    std::shared_ptr<const FeatureStore> owner_;
    const SignatureColumn* column_;
    size_t offset_;
  };

  TextHandle TextsFor(const std::vector<std::string>& attributes) const {
    return {store_, &store_->Texts(attributes), offset_};
  }
  TokenHandle TokensFor(const std::vector<std::string>& attributes) const {
    return {store_, &store_->Tokens(attributes), offset_};
  }
  ShingleHandle ShinglesFor(const std::vector<std::string>& attributes,
                            int q) const {
    return {store_, &store_->Shingles(attributes, q), offset_};
  }
  SignatureHandle SignaturesFor(const std::vector<std::string>& attributes,
                                int q, int num_hashes, uint64_t seed) const {
    return {store_, &store_->Signatures(attributes, q, num_hashes, seed),
            offset_};
  }

 private:
  std::shared_ptr<const FeatureStore> store_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace sablock::features

#endif  // SABLOCK_FEATURES_FEATURE_STORE_H_
