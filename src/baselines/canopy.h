#ifndef SABLOCK_BASELINES_CANOPY_H_
#define SABLOCK_BASELINES_CANOPY_H_

#include <cstdint>
#include <string>

#include "baselines/blocking_key.h"
#include "core/blocking.h"

namespace sablock::baselines {

/// Which cheap similarity the canopy methods use over BKV token sets.
enum class CanopySimilarity { kJaccard, kTfIdfCosine };

/// Threshold-based canopy clustering ("CaTh", McCallum et al.): repeatedly
/// pick a random seed record; all records with similarity >= `loose` join
/// its canopy (block); those with similarity >= `tight` are removed from
/// the candidate pool. An inverted index over BKV tokens restricts the
/// similarity computations to records sharing at least one token with the
/// seed (the "cheap distance" trick of the original paper).
class CanopyThreshold : public core::BlockingTechnique {
 public:
  CanopyThreshold(BlockingKeyDef key, CanopySimilarity similarity,
                  double loose, double tight, uint64_t seed = 31);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  CanopySimilarity similarity_;
  double loose_;
  double tight_;
  uint64_t seed_;
};

/// Nearest-neighbour canopy clustering ("CaNN", Christen): like CaTh but
/// with cardinality thresholds — the canopy is the seed's `n1` most similar
/// candidates, of which the `n2` most similar are removed from the pool.
class CanopyNearestNeighbour : public core::BlockingTechnique {
 public:
  CanopyNearestNeighbour(BlockingKeyDef key, CanopySimilarity similarity,
                         int n1, int n2, uint64_t seed = 31);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  BlockingKeyDef key_;
  CanopySimilarity similarity_;
  int n1_;
  int n2_;
  uint64_t seed_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_CANOPY_H_
