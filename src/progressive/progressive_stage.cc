#include "progressive/progressive_stage.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace sablock::progressive {

std::string ProgressiveStage::name() const {
  std::string label = "progressive(sched=" + scheduler_->name();
  std::string budget = budget_.ToString();
  if (!budget.empty()) label += "," + budget;
  return label + ")";
}

void ProgressiveStage::Flush() {
  // Canonical content order, for the same reason as MetaStage: the
  // schedulers' tie-breaks are deterministic given a block order, and
  // sorting erases the engine's scheduling-dependent arrival order.
  std::sort(buffered_.begin(), buffered_.end());
  core::BlockCollection input;
  for (core::Block& block : buffered_) input.Add(std::move(block));
  buffered_.clear();

  std::vector<CandidatePair> ranked =
      scheduler_->Schedule(dataset_->size(), input);

  if (meter_ == nullptr) {
    meter_ = std::make_shared<core::BudgetMeter>(budget_);
  }
  const bool track_recall = meter_->budget().recall_target > 0.0;
  if (track_recall) {
    meter_->ConfigureRecall(dataset_->CountTrueMatchPairs());
  }

  pairs_emitted_ = 0;
  for (const CandidatePair& pair : ranked) {
    if (next_->Done() || !meter_->Spend(1)) break;
    next_->Consume(core::Block{pair.a, pair.b});
    ++pairs_emitted_;
    if (track_recall && dataset_->IsMatch(pair.a, pair.b)) {
      meter_->NoteMatch();
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry
      .GetCounter("progressive_pairs_emitted",
                  "candidate pairs emitted by progressive stages", "sched",
                  scheduler_->name())
      ->Add(pairs_emitted_);
  if (meter_->Exhausted()) {
    registry
        .GetCounter("progressive_budget_exhausted",
                    "progressive runs that hit a budget limit", "reason",
                    meter_->ExhaustedReason())
        ->Add(1);
  }

  next_->Flush();
}

}  // namespace sablock::progressive
