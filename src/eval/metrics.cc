#include "eval/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace sablock::eval {

double HarmonicMean(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return 0.0;
  return 2.0 * a * b / (a + b);
}

Metrics Evaluate(const data::Dataset& dataset,
                 const core::BlockCollection& blocks) {
  Metrics m;
  m.num_blocks = blocks.NumBlocks();
  m.max_block_size = blocks.MaxBlockSize();
  m.total_comparisons = blocks.TotalComparisons();
  m.ground_truth_pairs = dataset.CountTrueMatchPairs();
  m.all_pairs = dataset.TotalPairs();

  PairSet pairs = blocks.DistinctPairs();
  m.distinct_pairs = pairs.size();
  uint64_t true_pairs = 0;
  pairs.ForEach([&](uint32_t a, uint32_t b) {
    if (dataset.IsMatch(a, b)) ++true_pairs;
  });
  m.true_pairs = true_pairs;

  if (m.ground_truth_pairs > 0) {
    m.pc = static_cast<double>(m.true_pairs) /
           static_cast<double>(m.ground_truth_pairs);
  }
  if (m.distinct_pairs > 0) {
    m.pq = static_cast<double>(m.true_pairs) /
           static_cast<double>(m.distinct_pairs);
  }
  if (m.all_pairs > 0) {
    m.rr = 1.0 - static_cast<double>(m.distinct_pairs) /
                     static_cast<double>(m.all_pairs);
  }
  if (m.total_comparisons > 0) {
    m.pq_star = static_cast<double>(m.true_pairs) /
                static_cast<double>(m.total_comparisons);
  }
  m.fm = HarmonicMean(m.pc, m.pq);
  m.fm_star = HarmonicMean(m.pc, m.pq_star);
  return m;
}

std::vector<double> DefaultRecallFractions() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0};
}

RecallCurve RecallAtBudget(
    const data::Dataset& dataset,
    const std::vector<progressive::CandidatePair>& ordered,
    uint64_t budget_pairs, const std::vector<double>& fractions) {
  RecallCurve curve;
  curve.budget_pairs =
      std::min<uint64_t>(budget_pairs, ordered.size());
  const uint64_t ground_truth = dataset.CountTrueMatchPairs();

  // One pass over the emission order: matches found so far is monotone,
  // so each ascending fraction just extends the walk.
  uint64_t found = 0;
  size_t walked = 0;
  for (double fraction : fractions) {
    uint64_t limit = static_cast<uint64_t>(
        fraction * static_cast<double>(curve.budget_pairs) + 0.5);
    limit = std::min<uint64_t>(limit, curve.budget_pairs);
    while (walked < limit) {
      const progressive::CandidatePair& pair = ordered[walked];
      if (dataset.IsMatch(pair.a, pair.b)) ++found;
      ++walked;
    }
    double recall = ground_truth > 0 ? static_cast<double>(found) /
                                           static_cast<double>(ground_truth)
                                     : 0.0;
    curve.points.push_back({fraction, recall});
    curve.auc += recall;
  }
  if (!curve.points.empty()) {
    curve.auc /= static_cast<double>(curve.points.size());
  }
  return curve;
}

std::string Summary(const Metrics& m) {
  return "PC=" + sablock::FormatDouble(m.pc, 4) +
         " PQ=" + sablock::FormatDouble(m.pq, 4) +
         " RR=" + sablock::FormatDouble(m.rr, 4) +
         " FM=" + sablock::FormatDouble(m.fm, 4) +
         " pairs=" + std::to_string(m.distinct_pairs) +
         " blocks=" + std::to_string(m.num_blocks);
}

}  // namespace sablock::eval
