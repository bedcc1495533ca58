#include "features/feature_store.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "arch/kernels.h"
#include "common/check.h"
#include "common/flat_map.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/minhash.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "text/qgram.h"

namespace sablock::features {

namespace {

/// Cache telemetry for one column kind: a getter call either finds the
/// column published (hit) or pays the build (miss, with its wall time in
/// the build histogram). Pointers resolve once per kind per process;
/// the getters then update lock-free. Hit rate is the `featurestore`
/// family bench_compare.py gates for drift.
struct ColumnMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Histogram* build_seconds;

  explicit ColumnMetrics(const char* column) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    hits = registry.GetCounter(
        "featurestore_hits", "column requests served from the cache",
        "column", column);
    misses = registry.GetCounter(
        "featurestore_misses", "column requests that paid a build", "column",
        column);
    build_seconds = registry.GetHistogram(
        "featurestore_build_seconds", "column build wall time",
        obs::Histogram::LatencyBuckets(), "column", column);
  }
};

// Column keys: attribute names joined with a separator that cannot occur
// in attribute names coming from CSV headers or generators, plus the
// numeric parameters for derived columns.
constexpr char kAttrSep = '\x1f';
constexpr char kParamSep = '\x1e';

std::string TextKey(const std::vector<std::string>& attributes) {
  std::string key;
  for (const std::string& attr : attributes) {
    key += attr;
    key += kAttrSep;
  }
  return key;
}

std::string ShingleKey(const std::vector<std::string>& attributes, int q) {
  std::string key = TextKey(attributes);
  key += kParamSep;
  key += std::to_string(q);
  return key;
}

std::string SignatureKey(const std::vector<std::string>& attributes, int q,
                         int num_hashes, uint64_t seed) {
  std::string key = ShingleKey(attributes, q);
  key += kParamSep;
  key += std::to_string(num_hashes);
  key += kParamSep;
  key += std::to_string(seed);
  return key;
}

struct FreeDeleter {
  void operator()(uint64_t* p) const { std::free(p); }
};
using MatrixPtr = std::unique_ptr<uint64_t[], FreeDeleter>;

/// Uninitialised storage for a signature matrix of `count` slots: no
/// zero-fill, so each ParallelFor chunk first-touches only its own rows.
/// A matrix of 64 MiB or more is 2 MiB-aligned and advised as
/// transparent huge pages (a hint, ignored where the kernel has them
/// off): first touch then faults once per 2 MiB, not once per 4 KiB
/// page — Voter's 316 MB column is ~150 faults instead of ~77,000 — and
/// the band-key readers walk it with fewer TLB misses. Smaller matrices
/// stay on 4 KiB pages, so padding never exceeds 1/32 of a column.
MatrixPtr AllocateMatrix(size_t count) {
  constexpr size_t kHugePage = size_t{2} << 20;
  size_t bytes = std::max<size_t>(count, 1) * sizeof(uint64_t);
  size_t align = alignof(uint64_t);
  if (bytes >= 32 * kHugePage) {
    align = kHugePage;
    // aligned_alloc wants a size that is a multiple of the alignment.
    bytes = (bytes + kHugePage - 1) / kHugePage * kHugePage;
  }
  void* p = std::aligned_alloc(align, bytes);
  SABLOCK_CHECK_MSG(p != nullptr, "signature matrix allocation failed");
#if defined(MADV_HUGEPAGE)
  if (align == kHugePage) madvise(p, bytes, MADV_HUGEPAGE);
#endif
  return MatrixPtr(static_cast<uint64_t*>(p));
}

/// Gives the distinct shingles of `column` dense row ids in first-seen
/// order (`(*distinct)[id]` is the shingle of row `id`). Returns false as
/// soon as more than `limit` distinct shingles have been seen.
bool InternShingles(const ShingleColumn& column, size_t limit,
                    FlatMap<uint64_t, uint32_t>* row_of,
                    std::vector<uint64_t>* distinct) {
  for (const std::vector<uint64_t>& set : column.sets) {
    for (uint64_t shingle : set) {
      const auto id = static_cast<uint32_t>(distinct->size());
      if (!row_of->TryEmplace(shingle, id).second) continue;
      if (distinct->size() == limit) return false;
      distinct->push_back(shingle);
    }
  }
  return true;
}

}  // namespace

FeatureStore::FeatureStore(const data::Dataset& dataset)
    : snapshot_(dataset.ColdCopy()), dataset_version_(dataset.version()) {}

template <typename Column>
FeatureStore::Entry<Column>& FeatureStore::FindOrCreate(
    EntryMap<Column>& map, const std::string& key) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto [it, inserted] = map.try_emplace(key, nullptr);
  if (inserted) it->second = std::make_unique<Entry<Column>>();
  return *it->second;
}

const TextColumn& FeatureStore::Texts(
    const std::vector<std::string>& attributes) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("text");
  Entry<TextColumn>& entry = FindOrCreate(texts_, TextKey(attributes));
  bool built_here = false;
  std::call_once(entry.once, [&] {
    WallTimer timer;
    BuildTexts(attributes, &entry.column);
    metrics.build_seconds->Observe(timer.Seconds());
    text_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::texts, attributes, 0, 0, 0);
    built_here = true;
  });
  (built_here ? metrics.misses : metrics.hits)->Add(1);
  return entry.column;
}

const TokenColumn& FeatureStore::Tokens(
    const std::vector<std::string>& attributes) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("token");
  Entry<TokenColumn>& entry =
      FindOrCreate(tokens_columns_, TextKey(attributes));
  bool built_here = false;
  std::call_once(entry.once, [&] {
    WallTimer timer;
    BuildTokens(attributes, &entry.column);
    metrics.build_seconds->Observe(timer.Seconds());
    token_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::tokens, attributes, 0, 0, 0);
    built_here = true;
  });
  (built_here ? metrics.misses : metrics.hits)->Add(1);
  return entry.column;
}

const ShingleColumn& FeatureStore::Shingles(
    const std::vector<std::string>& attributes, int q) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("shingle");
  Entry<ShingleColumn>& entry =
      FindOrCreate(shingles_, ShingleKey(attributes, q));
  bool built_here = false;
  std::call_once(entry.once, [&] {
    WallTimer timer;
    BuildShingles(attributes, q, &entry.column);
    metrics.build_seconds->Observe(timer.Seconds());
    shingle_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::shingles, attributes, q, 0, 0);
    built_here = true;
  });
  (built_here ? metrics.misses : metrics.hits)->Add(1);
  return entry.column;
}

const SignatureColumn& FeatureStore::Signatures(
    const std::vector<std::string>& attributes, int q, int num_hashes,
    uint64_t seed) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("signature");
  Entry<SignatureColumn>& entry = FindOrCreate(
      signatures_, SignatureKey(attributes, q, num_hashes, seed));
  bool built_here = false;
  std::call_once(entry.once, [&] {
    WallTimer timer;
    BuildSignatures(attributes, q, num_hashes, seed, &entry.column);
    metrics.build_seconds->Observe(timer.Seconds());
    signature_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::signatures, attributes, q, num_hashes, seed);
    built_here = true;
  });
  (built_here ? metrics.misses : metrics.hits)->Add(1);
  return entry.column;
}

void FeatureStore::BuildTexts(const std::vector<std::string>& attributes,
                              TextColumn* out) const {
  obs::ObsSpan span("features.build.text");
  out->texts.resize(snapshot_.size());
  const std::vector<int> positions = snapshot_.schema().Positions(attributes);
  ParallelFor(out->texts.size(), kRecordGrain, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      out->texts[id] = data::BlockingText(
          snapshot_.Values(static_cast<data::RecordId>(id)), positions);
    }
  });
}

void FeatureStore::BuildTokens(const std::vector<std::string>& attributes,
                               TokenColumn* out) const {
  const TextColumn& texts = Texts(attributes);
  // Serial: dictionary and column-local ids follow record order.
  obs::ObsSpan span("features.build.token");
  const size_t n = snapshot_.size();
  out->tokens.resize(n);
  // Natural-text vocabularies grow O(records), so pre-size the id maps
  // and the dictionary from the row count — the builds below then run
  // without rehash churn (visible in bench_micro's feature section).
  out->global_ids.reserve(n);
  {
    std::lock_guard<std::mutex> lock(token_mutex_);
    token_ids_.reserve(token_ids_.size() + n);
    tokens_.reserve(tokens_.size() + n);
  }
  // Column-local dense ids keep postings/bitmap consumers sized by this
  // column's vocabulary, independent of how large the shared dictionary
  // grew from other columns.
  FlatMap<TokenId, TokenId> local_of;
  local_of.reserve(n);
  for (data::RecordId id = 0; id < n; ++id) {
    std::vector<std::string> words = SplitWords(texts.texts[id]);
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::vector<TokenId>& ids = out->tokens[id];
    ids.reserve(words.size());
    {
      std::lock_guard<std::mutex> lock(token_mutex_);
      for (std::string& w : words) {
        auto [it, inserted] = token_ids_.try_emplace(
            w, static_cast<TokenId>(tokens_.size()));
        if (inserted) tokens_.push_back(std::move(w));
        auto [local_slot, fresh] = local_of.TryEmplace(
            it->second, static_cast<TokenId>(out->global_ids.size()));
        if (fresh) out->global_ids.push_back(it->second);
        ids.push_back(*local_slot);
      }
    }
    std::sort(ids.begin(), ids.end());
  }
  out->token_limit = static_cast<uint32_t>(out->global_ids.size());
}

void FeatureStore::BuildShingles(const std::vector<std::string>& attributes,
                                 int q, ShingleColumn* out) const {
  const TextColumn& texts = Texts(attributes);
  obs::ObsSpan span("features.build.shingle");
  out->sets.resize(snapshot_.size());
  ParallelFor(out->sets.size(), kRecordGrain, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      out->sets[id] = text::QGramHashes(texts.texts[id], q);
    }
  });
}

void FeatureStore::BuildSignatures(
    const std::vector<std::string>& attributes, int q, int num_hashes,
    uint64_t seed, SignatureColumn* out) const {
  const ShingleColumn& shingles = Shingles(attributes, q);
  obs::ObsSpan span("features.build.signature");
  core::MinHasher hasher(num_hashes, seed);
  const size_t n = snapshot_.size();
  const size_t row = static_cast<size_t>(num_hashes);
  // One flat allocation for the whole column, written in place below.
  MatrixPtr matrix = AllocateMatrix(n * row);
  uint64_t* const all = matrix.get();

  // Few distinct shingles (Voter's names repeat across records): hash
  // each distinct shingle once into a table row, then each record's
  // signature is the element-wise min of its shingles' rows — the same
  // bytes as hashing every occurrence, since min over precomputed hashes
  // is min over recomputed ones. Taken only while the table is at most
  // 1/8 of the column it fills (distinct × 8 <= records), so it never
  // costs more than that in memory.
  FlatMap<uint64_t, uint32_t> row_of;
  std::vector<uint64_t> distinct;
  if (InternShingles(shingles, n / 8, &row_of, &distinct)) {
    std::vector<uint64_t> table(distinct.size() * row);
    ParallelFor(distinct.size(), kRecordGrain, [&](size_t begin, size_t end) {
      for (size_t d = begin; d < end; ++d) {
        hasher.SignatureInto({&distinct[d], 1}, {&table[d * row], row});
      }
    });
    const arch::KernelTable& kernels = arch::ActiveKernels();
    ParallelFor(n, kRecordGrain, [&](size_t begin, size_t end) {
      std::vector<uint32_t> ids;
      for (size_t id = begin; id < end; ++id) {
        const std::vector<uint64_t>& set = shingles.sets[id];
        ids.resize(set.size());
        for (size_t s = 0; s < set.size(); ++s) ids[s] = *row_of.Find(set[s]);
        kernels.min_of_rows(table.data(), ids.data(), ids.size(), row,
                            all + id * row);
      }
    });
    signature_table_builds_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ParallelFor(n, kRecordGrain, [&](size_t begin, size_t end) {
      for (size_t id = begin; id < end; ++id) {
        hasher.SignatureInto(shingles.sets[id], {all + id * row, row});
      }
    });
  }
  out->num_hashes = static_cast<uint32_t>(num_hashes);
  out->rows = {all, n * row};
  out->retain = std::move(matrix);
}

void FeatureStore::RecordInCatalog(std::vector<ColumnParams> Catalog::* list,
                                   const std::vector<std::string>& attributes,
                                   int q, int num_hashes,
                                   uint64_t seed) const {
  ColumnParams params;
  params.attributes = attributes;
  params.q = q;
  params.num_hashes = num_hashes;
  params.seed = seed;
  std::lock_guard<std::mutex> lock(map_mutex_);
  (catalog_.*list).push_back(std::move(params));
}

FeatureStore::Catalog FeatureStore::catalog() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return catalog_;
}

void FeatureStore::AdoptTexts(const std::vector<std::string>& attributes,
                              TextColumn column) {
  SABLOCK_CHECK_MSG(column.texts.size() == size(),
                    "adopted text column has wrong record count");
  Entry<TextColumn>& entry = FindOrCreate(texts_, TextKey(attributes));
  bool adopted = false;
  std::call_once(entry.once, [&] {
    entry.column = std::move(column);
    text_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::texts, attributes, 0, 0, 0);
    adopted = true;
  });
  SABLOCK_CHECK_MSG(adopted, "text column already built; adopt first");
}

void FeatureStore::AdoptTokens(const std::vector<std::string>& attributes,
                               std::vector<std::string> local_tokens,
                               std::vector<std::vector<TokenId>> per_record) {
  SABLOCK_CHECK_MSG(per_record.size() == size(),
                    "adopted token column has wrong record count");
  TokenColumn column;
  column.tokens = std::move(per_record);
  column.token_limit = static_cast<uint32_t>(local_tokens.size());
  column.global_ids.reserve(local_tokens.size());
  {
    // Re-intern the column vocabulary in local-id order: local ids (the
    // semantic ones — block content and order depend on them) transfer
    // exactly; only the global dictionary ids may differ from the
    // producing process, which is fine because they never leave Token().
    std::lock_guard<std::mutex> lock(token_mutex_);
    token_ids_.reserve(token_ids_.size() + local_tokens.size());
    tokens_.reserve(tokens_.size() + local_tokens.size());
    for (std::string& w : local_tokens) {
      auto [it, inserted] =
          token_ids_.try_emplace(w, static_cast<TokenId>(tokens_.size()));
      if (inserted) tokens_.push_back(std::move(w));
      column.global_ids.push_back(it->second);
    }
  }
  Entry<TokenColumn>& entry =
      FindOrCreate(tokens_columns_, TextKey(attributes));
  bool adopted = false;
  std::call_once(entry.once, [&] {
    entry.column = std::move(column);
    token_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::tokens, attributes, 0, 0, 0);
    adopted = true;
  });
  SABLOCK_CHECK_MSG(adopted, "token column already built; adopt first");
}

void FeatureStore::AdoptShingles(const std::vector<std::string>& attributes,
                                 int q, ShingleColumn column) {
  SABLOCK_CHECK_MSG(column.sets.size() == size(),
                    "adopted shingle column has wrong record count");
  Entry<ShingleColumn>& entry =
      FindOrCreate(shingles_, ShingleKey(attributes, q));
  bool adopted = false;
  std::call_once(entry.once, [&] {
    entry.column = std::move(column);
    shingle_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::shingles, attributes, q, 0, 0);
    adopted = true;
  });
  SABLOCK_CHECK_MSG(adopted, "shingle column already built; adopt first");
}

void FeatureStore::AdoptSignatures(const std::vector<std::string>& attributes,
                                   int q, int num_hashes, uint64_t seed,
                                   SignatureColumn column) {
  SABLOCK_CHECK_MSG(
      column.num_hashes == static_cast<uint32_t>(num_hashes) &&
          column.rows.size() == size() * static_cast<size_t>(num_hashes),
      "adopted signature column has wrong shape");
  Entry<SignatureColumn>& entry = FindOrCreate(
      signatures_, SignatureKey(attributes, q, num_hashes, seed));
  bool adopted = false;
  std::call_once(entry.once, [&] {
    entry.column = std::move(column);
    signature_builds_.fetch_add(1, std::memory_order_relaxed);
    RecordInCatalog(&Catalog::signatures, attributes, q, num_hashes, seed);
    adopted = true;
  });
  SABLOCK_CHECK_MSG(adopted, "signature column already built; adopt first");
}

std::string FeatureStore::Token(TokenId id) const {
  std::lock_guard<std::mutex> lock(token_mutex_);
  SABLOCK_CHECK_MSG(id < tokens_.size(), "token id out of range");
  return tokens_[id];
}

size_t FeatureStore::NumInternedTokens() const {
  std::lock_guard<std::mutex> lock(token_mutex_);
  return tokens_.size();
}

FeatureStore::Stats FeatureStore::stats() const {
  Stats s;
  s.text_builds = text_builds_.load(std::memory_order_relaxed);
  s.token_builds = token_builds_.load(std::memory_order_relaxed);
  s.shingle_builds = shingle_builds_.load(std::memory_order_relaxed);
  s.signature_builds = signature_builds_.load(std::memory_order_relaxed);
  s.signature_table_builds =
      signature_table_builds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sablock::features
