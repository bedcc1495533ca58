#ifndef SABLOCK_BASELINES_SORTED_NEIGHBOURHOOD_H_
#define SABLOCK_BASELINES_SORTED_NEIGHBOURHOOD_H_

#include <vector>

#include "baselines/blocking_key.h"
#include "core/blocking.h"

namespace sablock::baselines {

/// Array-based sorted neighbourhood ("SorA", Hernández & Stolfo): records
/// are sorted by their key; a window of `window_size` records slides over
/// the sorted array and each window position forms a block.
class SortedNeighbourhoodArray : public core::BlockingTechnique {
 public:
  SortedNeighbourhoodArray(BlockingKeyDef key, int window_size)
      : key_(std::move(key)), window_size_(window_size) {}

  std::string name() const override {
    return "SorA(w=" + std::to_string(window_size_) + ")";
  }
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int window_size_;
};

/// Inverted-index-based sorted neighbourhood ("SorII", Christen): the
/// window slides over the sorted *unique key values*; a block is the union
/// of the posting lists of the keys inside the window. Unlike SorA, all
/// records with equal keys are always compared regardless of window size.
class SortedNeighbourhoodInvertedIndex : public core::BlockingTechnique {
 public:
  SortedNeighbourhoodInvertedIndex(BlockingKeyDef key, int window_size)
      : key_(std::move(key)), window_size_(window_size) {}

  std::string name() const override {
    return "SorII(w=" + std::to_string(window_size_) + ")";
  }
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  int window_size_;
};

/// Multi-pass sorted neighbourhood (Hernández & Stolfo's merge/purge):
/// one SorA pass per blocking key, followed by the transitive closure of
/// all window pairs. Several cheap passes with small windows outperform a
/// single pass with a large window because different keys make different
/// errors sortable.
class MultiPassSortedNeighbourhood : public core::BlockingTechnique {
 public:
  MultiPassSortedNeighbourhood(std::vector<BlockingKeyDef> keys,
                               int window_size);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<BlockingKeyDef> keys_;
  int window_size_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_SORTED_NEIGHBOURHOOD_H_
