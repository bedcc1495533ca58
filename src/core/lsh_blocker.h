#ifndef SABLOCK_CORE_LSH_BLOCKER_H_
#define SABLOCK_CORE_LSH_BLOCKER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "core/minhash.h"
#include "core/semantic.h"
#include "core/semhash.h"
#include "features/feature_store.h"

namespace sablock::core {

/// Parameters of the textual (minhash) part of the LSH blocking family:
/// l hash tables of k minhash functions each (Section 5.1, "amplifying").
struct LshParams {
  int k = 4;                            ///< minhash functions per table
  int l = 63;                           ///< number of hash tables
  int q = 3;                            ///< q-gram size for shingling
  std::vector<std::string> attributes;  ///< attributes used for shingling
  uint64_t seed = 7;                    ///< hash-family seed
};

/// How a w-way semantic hash function combines its w semhash draws
/// (Section 5.2): AND requires all chosen features shared, OR at least one.
enum class SemanticMode { kAnd, kOr };

/// Parameters of the w-way semantic hash function augmenting each table.
struct SemanticParams {
  int w = 1;
  SemanticMode mode = SemanticMode::kOr;
  uint64_t seed = 11;
};

/// Plain LSH blocking over textual similarity only (the paper's "LSH"
/// competitor): records whose k minhash values agree in at least one of the
/// l tables share a block. Records with no shingles (all-empty attributes)
/// are excluded from all tables.
class LshBlocker : public BlockingTechnique {
 public:
  explicit LshBlocker(LshParams params);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

  const LshParams& params() const { return params_; }

 private:
  LshParams params_;
};

/// Semantic-aware LSH blocking (the paper's contribution, "SA-LSH"):
/// each of the l minhash tables is augmented with a w-way semantic hash
/// function built from w randomly chosen semhash functions (chosen per
/// table, without replacement).
///
///  - AND mode: a record enters table t only if all w chosen semhash bits
///    are set — two records collide iff the pairwise w-way AND is true.
///  - OR mode: a record enters one sub-bucket per set bit among the w
///    chosen features — two records collide iff they share at least one
///    chosen set bit, exactly the pairwise w-way OR.
///
/// Records that are semantically dissimilar (no shared semantic feature)
/// can never be placed in the same block regardless of textual similarity
/// (Proposition 5.3) when w covers the full signature.
class SemanticAwareLshBlocker : public BlockingTechnique {
 public:
  SemanticAwareLshBlocker(LshParams lsh_params, SemanticParams sem_params,
                          std::shared_ptr<const SemanticFunction> semantics);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

  const LshParams& lsh_params() const { return lsh_params_; }
  const SemanticParams& semantic_params() const { return sem_params_; }

 private:
  LshParams lsh_params_;
  SemanticParams sem_params_;
  std::shared_ptr<const SemanticFunction> semantics_;
};

/// The cached minhash signatures of a dataset under the given params — a
/// handle into the dataset's FeatureStore, computed on first request and
/// shared by every LSH-family blocker (and engine shard) using the same
/// (attributes, q, k·l, seed). This is what the blockers use internally.
features::FeatureView::SignatureHandle MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params);

// ----------------------------------------------------------------------
// Bucketing primitives shared between the batch blockers above and the
// incremental LSH/SA-LSH indexes (src/index/). Both sides MUST place a
// record in exactly the same buckets for the index/batch parity guarantee
// to hold, so the bucket-key computation lives here, once.

/// Bucket key of table `table` for signature rows
/// [table*k, table*k + k) of `sig`.
uint64_t LshBandKey(std::span<const uint64_t> sig, int table, int k);

/// True for the sentinel signature of an empty shingle set; such records
/// are excluded from every LSH table.
bool IsEmptyMinhashSignature(std::span<const uint64_t> sig);

/// The w semhash functions (feature indices) table `table` draws under
/// `params`, for a semantic dimension of `dim` features. w is clamped to
/// dim. This is the per-table random draw of Section 5.2, deterministic
/// in (seed, table, dim).
std::vector<size_t> SemanticTableChoices(const SemanticParams& params,
                                         uint32_t dim, int table);

/// Appends the bucket keys record `sem` lands in for one table, given its
/// textual band key and the table's chosen semhash functions: AND mode
/// yields `band` itself iff all chosen bits are set; OR mode yields one
/// derived key per set chosen bit.
void AppendSemanticBucketKeys(uint64_t band, const SemSignature& sem,
                              SemanticMode mode,
                              const std::vector<size_t>& chosen,
                              std::vector<uint64_t>* keys);

}  // namespace sablock::core

#endif  // SABLOCK_CORE_LSH_BLOCKER_H_
