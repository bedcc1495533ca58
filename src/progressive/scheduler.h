#ifndef SABLOCK_PROGRESSIVE_SCHEDULER_H_
#define SABLOCK_PROGRESSIVE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/blocking.h"
#include "data/record.h"

namespace sablock::progressive {

/// One scored candidate comparison: a record pair and the scheduler's
/// priority for it (higher = compare sooner). Pairs are normalized a < b.
struct CandidatePair {
  data::RecordId a = 0;
  data::RecordId b = 0;
  double score = 0.0;

  friend bool operator==(const CandidatePair& x, const CandidatePair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// Orders the distinct candidate pairs of a block collection best-first —
/// the prioritization heart of progressive blocking (Galhotra et al.):
/// spend the comparison budget on the pairs most likely to match. A
/// scheduler is pure ranking; budget enforcement lives in the emitting
/// stage / sink layer.
///
/// Determinism contract: for a given (num_records, input block order) the
/// returned order is fully reproducible — schedulers break every tie
/// canonically (ascending packed pair key), so progressive output is
/// independent of thread count once the input stream is canonicalized.
class PairScheduler {
 public:
  virtual ~PairScheduler() = default;

  /// Scheduler spec name, e.g. "ew-cbs".
  virtual std::string name() const = 0;

  /// Returns every distinct candidate pair of `input` (record ids in
  /// [0, num_records)), ordered best-first with scores non-increasing in
  /// meaning (higher score = compare sooner).
  virtual std::vector<CandidatePair> Schedule(
      size_t num_records, const core::BlockCollection& input) const = 0;
};

/// Builds a scheduler from its spec name:
///
///   bsa        block-size-ascending: pairs of small blocks first
///              (smallest blocks carry the highest pair precision)
///   ew-arcs    meta-blocking edge weight, ARCS weighting
///   ew-cbs     ... CBS (common blocks)
///   ew-ecbs    ... ECBS
///   ew-js      ... JS (Jaccard of block sets)
///   ew-ejs     ... EJS
///   rr         round-robin over blocks: one pair per block per round
///   random     seeded uniform shuffle of the distinct pairs — the
///              baseline a real scheduler must dominate
///
/// `seed` is only consumed by `random`. Unknown names return an error
/// listing the known schedulers.
Status MakeScheduler(const std::string& sched, uint64_t seed,
                     std::unique_ptr<PairScheduler>* out);

/// The registered scheduler names, in documentation order.
std::vector<std::string> SchedulerNames();

}  // namespace sablock::progressive

#endif  // SABLOCK_PROGRESSIVE_SCHEDULER_H_
