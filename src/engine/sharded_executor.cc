#include "engine/sharded_executor.h"

#include "common/check.h"
#include "common/parallel.h"
#include "obs/span.h"

namespace sablock::engine {

ShardedExecutor::ShardedExecutor(ExecutionSpec spec) : spec_(spec) {
  SABLOCK_CHECK_MSG(spec_.threads >= 1, "ExecutionSpec.threads must be >= 1");
  SABLOCK_CHECK_MSG(spec_.shards == 1, "ExecutionSpec.shards must be 1");
}

void ShardedExecutor::Execute(const core::BlockingTechnique& technique,
                              const data::Dataset& dataset,
                              core::BlockSink& sink) const {
  // The workers serve the technique's own ParallelFor loops, which write
  // preassigned slots and emit on this thread, so every thread count is
  // byte-identical with a plain technique.Run(dataset, sink) — which
  // threads=1 is exactly.
  obs::ObsSpan span("engine.shard");
  ParallelScope workers(spec_.threads);
  technique.Run(dataset, sink);
}

void ShardedExecutor::ExecutePipeline(
    const core::BlockingTechnique& technique,
    const pipeline::Pipeline& stages, const data::Dataset& dataset,
    core::BlockSink& sink) const {
  pipeline::Chain chain = stages.Instantiate(dataset, sink);
  Execute(technique, dataset, chain.head());
  chain.Flush();
}

}  // namespace sablock::engine
