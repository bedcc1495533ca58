#ifndef SABLOCK_EVAL_HARNESS_H_
#define SABLOCK_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "core/budget.h"
#include "engine/execution_spec.h"
#include "eval/metrics.h"
#include "pipeline/pipeline.h"

namespace sablock::eval {

/// The outcome of running one blocking technique (one parameter setting)
/// on one dataset — a row of the Table 3 / Fig. 11 reproductions.
struct TechniqueResult {
  std::string name;
  Metrics metrics;
  double seconds = 0.0;
};

/// Runs a technique through the sharded execution engine under `spec`,
/// timing block construction (the Table 3 "Time" column measures block
/// building only, as in the paper). The default spec is one shard, which
/// is exactly technique.Run(dataset, sink). Timing is cold-path: the
/// technique runs against a detached feature cache (Dataset::ColdCopy) so
/// the reported seconds are end-to-end and independent of which technique
/// the harness happened to run first.
TechniqueResult RunTechnique(const core::BlockingTechnique& technique,
                             const data::Dataset& dataset,
                             const engine::ExecutionSpec& spec = {});

/// Observed block stream at one point of a pipeline — what one step
/// (the generator, or one stage) emitted, plus the wall time spent
/// inside that step alone.
struct StageCounts {
  std::string name;             ///< generator/stage name
  uint64_t blocks = 0;          ///< blocks emitted by this step
  uint64_t comparisons = 0;     ///< Σ|b|(|b|-1)/2 emitted
  uint64_t max_block_size = 0;  ///< largest emitted block
  double seconds = 0.0;         ///< exclusive time spent in this step
};

/// The outcome of one pipeline run: per-step counts (element [0] is the
/// generator, then one entry per stage in chain order), the final block
/// collection, its quality metrics and the end-to-end build time.
struct PipelineResult {
  std::string name;
  std::vector<StageCounts> stages;
  core::BlockCollection blocks;
  Metrics metrics;
  double seconds = 0.0;
};

/// Runs a block generator through a pipeline's stage chain with a
/// PairCountingSink interposed after every step, so the result reports
/// how each stage reshaped the block/pair stream and where the time
/// went. Cold-path timing, like RunTechnique. `evaluate=false` skips the
/// quality-metrics pass (a distinct-pair scan over the final blocks,
/// wasted work on all but the last of a timing loop's repetitions) and
/// leaves `metrics` default.
///
/// The generator runs through the sharded engine under `spec` (default:
/// one shard, the plain Run); the stage chain runs once, globally, and is
/// flushed after every shard has finished, so barrier stages fire at
/// merge. A non-null `meter` gates what reaches `blocks` through a
/// core::BudgetedSink after the last stage: barrier stages still see the
/// full stream, and Done() backpressure reaches the generator. The
/// per-step counts report what each step emitted, before the gate.
PipelineResult RunPipeline(const core::BlockingTechnique& blocker,
                           const pipeline::Pipeline& stages,
                           const data::Dataset& dataset,
                           bool evaluate = true,
                           const engine::ExecutionSpec& spec = {},
                           std::shared_ptr<core::BudgetMeter> meter = nullptr);

/// Runs every setting and returns all results.
std::vector<TechniqueResult> RunAll(
    const std::vector<std::unique_ptr<core::BlockingTechnique>>& settings,
    const data::Dataset& dataset);

/// RunAll sweeping the settings across a thread pool: each technique runs
/// single-threaded (unsharded, identical blocks to RunAll) but up to
/// `threads` techniques run concurrently. Results keep the input order.
/// Per-technique wall times include scheduling contention, so prefer
/// RunAll when individual timings are the measurement.
std::vector<TechniqueResult> RunAllParallel(
    const std::vector<std::unique_ptr<core::BlockingTechnique>>& settings,
    const data::Dataset& dataset, int threads);

/// Index of the result with the highest FM (the paper reports each
/// technique at its best-performing setting). Returns 0 for empty input.
size_t BestByFm(const std::vector<TechniqueResult>& results);

/// Fixed-width console table writer used by the bench binaries to print
/// paper-style tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row. Rows shorter than the header are padded with empty
  /// cells; rows longer than the header CHECK-fail (caller bug).
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sablock::eval

#endif  // SABLOCK_EVAL_HARNESS_H_
