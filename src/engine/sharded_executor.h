#ifndef SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
#define SABLOCK_ENGINE_SHARDED_EXECUTOR_H_

#include "core/blocking.h"
#include "data/record.h"
#include "engine/execution_spec.h"
#include "pipeline/pipeline.h"

namespace sablock::engine {

/// Runs any BlockingTechnique over a dataset under an ExecutionSpec.
///
/// Execute installs `threads` workers (common/parallel.h) for the length
/// of technique.Run(dataset, sink), and the technique splits its feature
/// columns, semantic interpretation, band-key fill and radix sort over
/// them. Emission stays on the calling thread, so the output is
/// byte-identical to a plain Run at any thread count, block order
/// included. Plain Run, the incremental indexes and the service install
/// no workers and stay serial.
///
/// Budgets are the caller's: wrap the sink in a core::BudgetedSink and
/// pass that.
class ShardedExecutor {
 public:
  explicit ShardedExecutor(ExecutionSpec spec);

  /// Runs `technique` over `dataset` under the spec, emitting every block
  /// into `sink` on the calling thread.
  void Execute(const core::BlockingTechnique& technique,
               const data::Dataset& dataset, core::BlockSink& sink) const;

  /// Runs `technique` into a fresh instance of `stages` and flushes the
  /// chain once it returns, so barrier stages (meta-blocking) run their
  /// graph phase over the full stream. The result equals
  /// PipelinedBlocker::Run of the same blocker and stages.
  void ExecutePipeline(const core::BlockingTechnique& technique,
                       const pipeline::Pipeline& stages,
                       const data::Dataset& dataset,
                       core::BlockSink& sink) const;

  const ExecutionSpec& spec() const { return spec_; }

 private:
  ExecutionSpec spec_;
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
