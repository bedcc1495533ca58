#ifndef SABLOCK_CORE_LSH_VARIANTS_H_
#define SABLOCK_CORE_LSH_VARIANTS_H_

#include <string>
#include <vector>

#include "core/blocking.h"
#include "core/lsh_blocker.h"

namespace sablock::core {

/// Multi-probe LSH blocking (Lv et al., VLDB 2007 — the paper's Related
/// Work [29]): instead of adding hash tables to raise recall, each record
/// also probes "near-by" buckets of the tables it has. For minhash
/// banding, the natural probing sequence perturbs one band row at a time
/// from the row's minimum to its second-smallest hash value; records whose
/// probe sets intersect share a block.
///
/// The practical effect reproduced here: MP-LSH with l' < l tables and a
/// few probes reaches the recall of plain LSH with l tables while using
/// less table memory (the variant's original selling point).
class MultiProbeLshBlocker : public BlockingTechnique {
 public:
  /// `num_probes` extra buckets per table (0 = plain LSH; capped at k).
  MultiProbeLshBlocker(LshParams params, int num_probes);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

 private:
  LshParams params_;
  int num_probes_;
};

/// LSH-forest blocking (Bawa et al., WWW 2005 — Related Work [5]): each of
/// the l trees stores records keyed by the *sequence* of minhash values
/// (a logical prefix tree of depth up to `max_depth`). Groups are split by
/// the next hash row only while they exceed `max_block_size`, so the
/// effective number of hash functions per tree is self-tuning: dense
/// regions use long prefixes (high precision), sparse regions short ones
/// (high recall) — no fixed k to choose.
class LshForestBlocker : public BlockingTechnique {
 public:
  LshForestBlocker(LshParams params, int max_depth, size_t max_block_size);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

 private:
  LshParams params_;  // params_.k is ignored; depth is adaptive
  int max_depth_;
  size_t max_block_size_;
};

/// Computes, for every record, the per-row (minimum, second-minimum)
/// minhash values; used by the multi-probe blocker and exposed for tests.
/// Rows of empty shingle sets hold (kEmptySlot, kEmptySlot).
void ComputeTop2MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params,
    std::vector<std::vector<uint64_t>>* min1,
    std::vector<std::vector<uint64_t>>* min2);

}  // namespace sablock::core

#endif  // SABLOCK_CORE_LSH_VARIANTS_H_
