#ifndef SABLOCK_BASELINES_SUFFIX_ARRAY_H_
#define SABLOCK_BASELINES_SUFFIX_ARRAY_H_

#include <string>

#include "baselines/blocking_key.h"
#include "core/blocking.h"

namespace sablock::baselines {

/// Suffix-array-based blocking ("SuA", Aizawa & Oyama): every suffix of a
/// record's BKV with length >= `min_suffix_len` becomes an index key; keys
/// whose posting lists exceed `max_block_size` are discarded (they are too
/// frequent to be discriminating). Remaining posting lists are the blocks.
class SuffixArrayBlocking : public core::BlockingTechnique {
 public:
  SuffixArrayBlocking(BlockingKeyDef key, int min_suffix_len,
                      size_t max_block_size);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int min_suffix_len_;
  size_t max_block_size_;
};

/// Suffix-array blocking over all substrings ("SuAS"): like SuA but every
/// substring of length >= `min_suffix_len` is indexed, which tolerates
/// errors at the end of the BKV as well as the beginning.
class SuffixArrayAllSubstrings : public core::BlockingTechnique {
 public:
  SuffixArrayAllSubstrings(BlockingKeyDef key, int min_suffix_len,
                           size_t max_block_size);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int min_suffix_len_;
  size_t max_block_size_;
};

/// Robust suffix-array blocking ("RSuA", de Vries et al.): the sorted list
/// of distinct suffixes is scanned and adjacent suffixes whose string
/// similarity is at least `similarity_threshold` have their posting lists
/// merged, making the index robust against single-character errors.
class RobustSuffixArrayBlocking : public core::BlockingTechnique {
 public:
  RobustSuffixArrayBlocking(BlockingKeyDef key, int min_suffix_len,
                            size_t max_block_size,
                            std::string similarity_name,
                            double similarity_threshold);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int min_suffix_len_;
  size_t max_block_size_;
  std::string similarity_name_;
  double similarity_threshold_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_SUFFIX_ARRAY_H_
