#include "core/lsh_blocker.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "common/random.h"
#include "core/group_by_key.h"
#include "features/feature_store.h"
#include "obs/span.h"

namespace sablock::core {

uint64_t LshBandKey(std::span<const uint64_t> sig, int table, int k) {
  uint64_t key = Mix64(0x5ab10c0 + static_cast<uint64_t>(table));
  for (int r = 0; r < k; ++r) {
    key = HashCombine(key, sig[static_cast<size_t>(table) * k + r]);
  }
  return key;
}

bool IsEmptyMinhashSignature(std::span<const uint64_t> sig) {
  return sig.empty() || sig[0] == MinHasher::kEmptySlot;
}

std::vector<size_t> SemanticTableChoices(const SemanticParams& params,
                                         uint32_t dim, int table) {
  // Draw this table's w-way semantic hash function: w distinct semhash
  // functions chosen uniformly at random (Section 5.2).
  const size_t w = static_cast<size_t>(
      std::min(params.w, static_cast<int>(dim)));  // clamp to |G|
  Rng rng(Mix64(params.seed) ^ Mix64(0x7ab1e + table));
  return rng.SampleIndices(dim, w);
}

void AppendSemanticBucketKeys(uint64_t band, const SemSignature& sem,
                              SemanticMode mode,
                              const std::vector<size_t>& chosen,
                              std::vector<uint64_t>* keys) {
  if (mode == SemanticMode::kAnd) {
    for (size_t f : chosen) {
      if (!sem.Get(static_cast<uint32_t>(f))) return;
    }
    keys->push_back(band);
  } else {
    for (size_t f : chosen) {
      if (sem.Get(static_cast<uint32_t>(f))) {
        keys->push_back(HashCombine(band, 0xfeed0000 + f));
      }
    }
  }
}

features::FeatureView::SignatureHandle MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params) {
  SABLOCK_CHECK(params.k > 0 && params.l > 0);
  return dataset.features().SignaturesFor(params.attributes, params.q,
                                          params.k * params.l, params.seed);
}

namespace {

using SignatureHandle = features::FeatureView::SignatureHandle;

// The records that enter the tables: those with a non-empty shingle set.
std::vector<data::RecordId> TableRecords(const SignatureHandle& sigs,
                                         size_t num_records) {
  std::vector<data::RecordId> ids;
  ids.reserve(num_records);
  for (data::RecordId id = 0; id < num_records; ++id) {
    if (!IsEmptyMinhashSignature(sigs.Signature(id))) ids.push_back(id);
  }
  return ids;
}

// The signature column is record-major (k·l slots a row), so one table's
// k slots sit a whole row apart from record to record: a stride the
// hardware prefetcher does not follow across pages. The band-key loop
// prefetches the table's slots this many records ahead.
constexpr size_t kPrefetchAhead = 16;

// Calls fn(id, band key of `table`) for every id in `ids`, in order.
template <typename Fn>
void ForEachBandKey(const SignatureHandle& sigs,
                    const std::vector<data::RecordId>& ids, int table, int k,
                    Fn&& fn) {
  const size_t slot = static_cast<size_t>(table) * k;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i + kPrefetchAhead < ids.size()) {
      const uint64_t* ahead = sigs.Signature(ids[i + kPrefetchAhead]).data();
      __builtin_prefetch(ahead + slot);
      __builtin_prefetch(ahead + slot + k - 1);
    }
    fn(ids[i], LshBandKey(sigs.Signature(ids[i]), table, k));
  }
}

}  // namespace

LshBlocker::LshBlocker(LshParams params) : params_(std::move(params)) {}

std::string LshBlocker::name() const {
  return "LSH(k=" + std::to_string(params_.k) +
         ",l=" + std::to_string(params_.l) + ")";
}

void LshBlocker::Run(const data::Dataset& dataset, BlockSink& sink) const {
  const SignatureHandle sigs = MinhashSignatures(dataset, params_);
  obs::ObsSpan band_keys("core.lsh.band_keys");
  obs::ObsSpan group_emit("core.lsh.group_emit");
  group_emit.Pause();
  const std::vector<data::RecordId> ids = TableRecords(sigs, dataset.size());
  GroupByKey groups;
  groups.Reserve(ids.size());
  for (int t = 0; t < params_.l && !sink.Done(); ++t) {
    band_keys.Resume();
    ForEachBandKey(sigs, ids, t, params_.k,
                   [&](data::RecordId id, uint64_t band) {
                     groups.Add(band, id);
                   });
    band_keys.Pause();
    group_emit.Resume();
    groups.Emit(sink);
    group_emit.Pause();
  }
}

SemanticAwareLshBlocker::SemanticAwareLshBlocker(
    LshParams lsh_params, SemanticParams sem_params,
    std::shared_ptr<const SemanticFunction> semantics)
    : lsh_params_(std::move(lsh_params)),
      sem_params_(sem_params),
      semantics_(std::move(semantics)) {
  SABLOCK_CHECK(semantics_ != nullptr);
  SABLOCK_CHECK(sem_params_.w >= 1);
}

std::string SemanticAwareLshBlocker::name() const {
  return "SA-LSH(k=" + std::to_string(lsh_params_.k) +
         ",l=" + std::to_string(lsh_params_.l) +
         ",w=" + std::to_string(sem_params_.w) +
         (sem_params_.mode == SemanticMode::kAnd ? ",AND)" : ",OR)");
}

void SemanticAwareLshBlocker::Run(const data::Dataset& dataset,
                                  BlockSink& sink) const {
  const SignatureHandle sigs = MinhashSignatures(dataset, lsh_params_);

  std::vector<SemSignature> sem_sigs;
  uint32_t dim = 0;
  {
    obs::ObsSpan span("core.salsh.semantic");
    const Taxonomy& taxonomy = semantics_->taxonomy();
    std::vector<std::vector<ConceptId>> zetas =
        semantics_->InterpretAll(dataset);
    SemhashEncoder encoder = SemhashEncoder::Build(taxonomy, zetas);
    sem_sigs = encoder.EncodeAll(taxonomy, zetas);
    dim = encoder.dimension();
  }
  // Degenerate case: no record has any semantic feature. The semantic
  // filter cannot distinguish records; fall back to textual blocking only.
  if (dim == 0) {
    LshBlocker(lsh_params_).Run(dataset, sink);
    return;
  }
  obs::ObsSpan band_keys("core.salsh.band_keys");
  obs::ObsSpan group_emit("core.salsh.group_emit");
  group_emit.Pause();
  const std::vector<data::RecordId> ids = TableRecords(sigs, dataset.size());
  GroupByKey groups;
  groups.Reserve(ids.size());
  std::vector<uint64_t> keys;
  for (int t = 0; t < lsh_params_.l && !sink.Done(); ++t) {
    band_keys.Resume();
    const std::vector<size_t> chosen =
        SemanticTableChoices(sem_params_, dim, t);
    ForEachBandKey(sigs, ids, t, lsh_params_.k,
                   [&](data::RecordId id, uint64_t band) {
                     keys.clear();
                     AppendSemanticBucketKeys(band, sem_sigs[id],
                                              sem_params_.mode, chosen,
                                              &keys);
                     for (uint64_t key : keys) groups.Add(key, id);
                   });
    band_keys.Pause();
    group_emit.Resume();
    groups.Emit(sink);
    group_emit.Pause();
  }
}

}  // namespace sablock::core
