#ifndef SABLOCK_CORE_ITERATIVE_BLOCKER_H_
#define SABLOCK_CORE_ITERATIVE_BLOCKER_H_

#include <string>

#include "core/blocking.h"
#include "core/lsh_blocker.h"

namespace sablock::core {

/// HARRA-style iterative LSH blocking (Kim & Lee, EDBT 2010 — the paper's
/// Related Work [28]): records hashed into the same bucket whose signature
/// agreement clears a match threshold are *merged* (their shingle sets
/// unioned), and the merged super-records are re-hashed in the next
/// iteration. Early merges let later iterations catch pairs whose
/// similarity to the merged profile exceeds their pairwise similarity —
/// the "record-of-records" effect.
///
/// Output blocks are the connected components of all merge decisions.
/// This is a *blocking* adaptation (candidates, not final matches): the
/// match threshold plays the role of HARRA's cheap in-bucket verifier.
class IterativeLshBlocker : public BlockingTechnique {
 public:
  /// `merge_threshold` — minimum estimated Jaccard (signature agreement)
  /// for two co-bucketed records to merge; `iterations` — number of
  /// hash-merge rounds.
  IterativeLshBlocker(LshParams params, double merge_threshold,
                      int iterations);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

 private:
  LshParams params_;
  double merge_threshold_;
  int iterations_;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_ITERATIVE_BLOCKER_H_
