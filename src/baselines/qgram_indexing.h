#ifndef SABLOCK_BASELINES_QGRAM_INDEXING_H_
#define SABLOCK_BASELINES_QGRAM_INDEXING_H_

#include "baselines/blocking_key.h"
#include "core/blocking.h"

namespace sablock::baselines {

/// Q-gram-based indexing ("QGr", Baxter et al.): each record's BKV is cut
/// into a q-gram list; all sub-lists of length >= ceil(threshold · L) are
/// generated (by recursive single-gram deletion) and concatenated into
/// index keys, so records whose BKVs differ by a few grams still share a
/// key. Sub-list explosion is bounded by `max_keys_per_record` (sub-lists
/// are generated shortest-deletion-first, which keeps the most similar
/// variants).
class QGramIndexing : public core::BlockingTechnique {
 public:
  QGramIndexing(BlockingKeyDef key, int q, double threshold,
                size_t max_keys_per_record = 64);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int q_;
  double threshold_;
  size_t max_keys_per_record_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_QGRAM_INDEXING_H_
