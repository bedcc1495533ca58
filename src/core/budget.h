#ifndef SABLOCK_CORE_BUDGET_H_
#define SABLOCK_CORE_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"
#include "common/statusor.h"

namespace sablock::core {

/// The one budget grammar every layer speaks — pipeline stages, the
/// engine, the eval harness, the service verbs and the CLI flags
/// all parse the same comma-separated spec:
///
///   pairs=N           stop after N candidate pairs (redundancy-counting
///                     comparisons for block streams) have been emitted
///   seconds=S         stop once S wall-clock seconds have elapsed
///                     (fractional values allowed)
///   recall-target=R   stop once recall R in [0,1] is reached; requires a
///                     consumer with ground truth (eval paths only)
///
/// Terms combine with AND-of-limits semantics: the budget is exhausted as
/// soon as any configured limit trips. An empty spec (or a
/// default-constructed Budget) is unlimited.
struct Budget {
  /// No pair limit.
  static constexpr uint64_t kUnlimitedPairs =
      std::numeric_limits<uint64_t>::max();

  /// Largest accepted `seconds` (~31.7 years): far inside steady_clock's
  /// nanosecond range, so the meter's deadline now() + seconds never
  /// overflows.
  static constexpr double kMaxSeconds = 1e9;

  uint64_t pairs = kUnlimitedPairs;
  double seconds = 0.0;        ///< 0 = no time limit
  double recall_target = 0.0;  ///< 0 = no recall limit

  bool unlimited() const {
    return pairs == kUnlimitedPairs && seconds <= 0.0 && recall_target <= 0.0;
  }

  /// Parses "pairs=50000,seconds=1.5,recall-target=0.9" (any subset, any
  /// order; "inf"/"unlimited" accepted for pairs). Returns a diagnostic
  /// naming the offending term on malformed input: non-numbers,
  /// non-finite or out-of-range values (seconds beyond kMaxSeconds,
  /// recall-target outside (0, 1], pairs = 0).
  static StatusOr<Budget> Parse(const std::string& text);

  /// Out-parameter form for call sites on the Status convention.
  static Status Parse(const std::string& text, Budget* out);

  /// Canonical spec string (round-trips through Parse). Empty when
  /// unlimited.
  std::string ToString() const;
};

/// Shared, thread-safe countdown for one Budget: the atomic heart that
/// lets any number of producers (several BudgetedSinks, the progressive
/// stage, concurrent streams) account against one global budget without
/// an external mutex.
///
/// The spend that crosses the limit is still accepted (the caller
/// forwards its block/pair), so the total spent may overshoot by less
/// than one spend unit per concurrent spender.
class BudgetMeter {
 public:
  explicit BudgetMeter(Budget budget)
      : budget_(budget),
        deadline_(budget.seconds > 0.0
                      ? std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(std::min(
                                    budget.seconds, Budget::kMaxSeconds)))
                      : std::chrono::steady_clock::time_point::max()) {}

  const Budget& budget() const { return budget_; }

  /// Accounts `n` pairs. Returns true if the caller should forward this
  /// spend — the spend that crosses the limit is still accepted — and
  /// false once the budget was already exhausted before this call.
  bool Spend(uint64_t n) {
    if (exhausted_.load(std::memory_order_relaxed)) return false;
    uint64_t before = spent_.fetch_add(n, std::memory_order_relaxed);
    if (before >= budget_.pairs || budget_.pairs - before <= n) {
      MarkExhausted();
    } else if (budget_.seconds > 0.0 &&
               std::chrono::steady_clock::now() >= deadline_) {
      MarkExhausted();
    }
    return true;
  }

  /// Records one true match found by a recall-aware consumer; trips the
  /// recall-target limit once enough of `total_true` matches were seen.
  /// ConfigureRecall must have been called first.
  void NoteMatch() {
    if (total_true_ == 0) return;
    uint64_t found = matches_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (budget_.recall_target > 0.0 &&
        static_cast<double>(found) >=
            budget_.recall_target * static_cast<double>(total_true_)) {
      MarkExhausted();
    }
  }

  /// Arms the recall-target limit with the ground-truth match count.
  /// Without this, a recall-target budget never trips (no ground truth).
  void ConfigureRecall(uint64_t total_true_matches) {
    total_true_ = total_true_matches;
  }

  bool Exhausted() const {
    if (exhausted_.load(std::memory_order_relaxed)) return true;
    if (budget_.seconds > 0.0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      MarkExhausted();
      return true;
    }
    return false;
  }

  /// Pairs spent so far (may overshoot the limit by the crossing spends).
  uint64_t Spent() const { return spent_.load(std::memory_order_relaxed); }

  /// True matches recorded via NoteMatch().
  uint64_t Matches() const { return matches_.load(std::memory_order_relaxed); }

  /// Why the budget tripped: "pairs", "seconds", "recall" — or "" while
  /// not exhausted. Stable once exhausted.
  const char* ExhaustedReason() const {
    switch (reason_.load(std::memory_order_relaxed)) {
      case kPairs: return "pairs";
      case kSeconds: return "seconds";
      case kRecall: return "recall";
      default: return "";
    }
  }

 private:
  enum Reason : int { kNone = 0, kPairs, kSeconds, kRecall };

  void MarkExhausted() const {
    int expected = kNone;
    reason_.compare_exchange_strong(expected, CurrentReason(),
                                    std::memory_order_relaxed);
    exhausted_.store(true, std::memory_order_relaxed);
  }

  int CurrentReason() const {
    if (spent_.load(std::memory_order_relaxed) >= budget_.pairs) return kPairs;
    if (budget_.recall_target > 0.0 && total_true_ > 0 &&
        static_cast<double>(matches_.load(std::memory_order_relaxed)) >=
            budget_.recall_target * static_cast<double>(total_true_)) {
      return kRecall;
    }
    return kSeconds;
  }

  Budget budget_;
  std::chrono::steady_clock::time_point deadline_;
  uint64_t total_true_ = 0;
  std::atomic<uint64_t> spent_{0};
  std::atomic<uint64_t> matches_{0};
  mutable std::atomic<bool> exhausted_{false};
  mutable std::atomic<int> reason_{kNone};
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_BUDGET_H_
