#ifndef SABLOCK_PIPELINE_STAGE_H_
#define SABLOCK_PIPELINE_STAGE_H_

#include <memory>
#include <string>

#include "core/block_sink.h"
#include "data/record.h"

namespace sablock::pipeline {

/// One stage of a block pipeline: a BlockSink that transforms the block
/// stream and forwards it to the next sink in the chain. Any block
/// generator composes with any sequence of stages — the post-processing
/// layer (purging, filtering, capping, meta-blocking) is orthogonal to
/// how the blocks were built.
///
/// Streaming stages (purge, filter:min_size, cap) pass every block
/// through incrementally; barrier stages (meta-blocking's graph phase,
/// filter:top_frac ranking) buffer their input and run on Flush(), the
/// end-of-stream signal.
///
/// Lifecycle: an instance is single-use. Attach() binds it to the dataset
/// being blocked and to its downstream sink before the first Consume();
/// Flush() ends the stream and cascades downstream. Pipelines hold
/// prototype stages and Clone() a fresh chain per run, so one Pipeline
/// serves concurrent runs (e.g. one per service request).
class PipelineStage : public core::BlockSink {
 public:
  enum class Kind {
    kStreaming,  ///< forwards each block as it arrives
    kBarrier,    ///< buffers; transforms and emits on Flush()
  };

  /// Registry spec name, e.g. "purge".
  virtual std::string spec_name() const = 0;

  /// Short identifier including bound parameters, e.g.
  /// "purge(max_size=500)" — mirrors BlockingTechnique::name().
  virtual std::string name() const = 0;

  virtual Kind kind() const = 0;

  /// Fresh unattached copy carrying configuration only (never buffered
  /// state); lets a const Pipeline instantiate one chain per run.
  virtual std::unique_ptr<PipelineStage> Clone() const = 0;

  /// Binds the stage to the dataset being blocked and its downstream
  /// sink. Must be called exactly once, before any Consume().
  void Attach(const data::Dataset& dataset, core::BlockSink& next) {
    dataset_ = &dataset;
    next_ = &next;
  }

  /// Streaming stages are done when downstream is; barrier stages
  /// override to keep accepting input (they need the full stream before
  /// they can emit anything).
  bool Done() const override { return next_->Done(); }

  /// Default end-of-stream handling: nothing buffered, just cascade.
  void Flush() override { next_->Flush(); }

 protected:
  const data::Dataset* dataset_ = nullptr;
  core::BlockSink* next_ = nullptr;
};

}  // namespace sablock::pipeline

#endif  // SABLOCK_PIPELINE_STAGE_H_
