#ifndef SABLOCK_PIPELINE_PIPELINE_H_
#define SABLOCK_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/pipeline_spec.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/blocking.h"
#include "obs/span.h"
#include "pipeline/stage.h"

namespace sablock::pipeline {

/// A wired, single-use instance of a pipeline's stage chain: the stages
/// are attached back-to-front onto a final sink, head() is where the
/// producer emits, and Flush() ends the stream (cascading through every
/// stage, which is when barrier stages run). Created by
/// Pipeline::Instantiate; movable so it can be returned by value.
///
/// The flush stops at the chain boundary: blocks and Done() flow through
/// to the caller's sink, but the caller's sink's own Flush() is never
/// invoked. Flush ownership does not cross an ownership boundary — so a
/// PipelinedBlocker running one chain per record shard cannot fire an
/// outer shared barrier stage once per shard.
///
/// Every stage is instrumented through an interposed counting sink: what
/// a stage emits feeds the process-wide `blocks_emitted{stage=...}` /
/// `comparisons_emitted{stage=...}` counters and the per-stage
/// block-size histogram, labeled by the stage's registry spec name. The
/// chain's trace id (minted by the runner, or threaded in from a serving
/// request) tags the chain-lifetime `pipeline.run` span.
class Chain {
 public:
  /// The sink the block producer writes into (the first stage, or the
  /// boundary pass-through for an empty pipeline).
  core::BlockSink& head() { return *head_; }

  /// Ends the stream: call exactly once, after the producer returns.
  /// Closes the chain's trace span.
  void Flush() {
    head_->Flush();
    span_.reset();
  }

  /// The trace id every span and stage observation of this chain run
  /// carries (0 when instantiated untraced).
  obs::TraceId trace() const { return trace_; }

 private:
  friend class Pipeline;

  /// Forwards blocks and backpressure to the chain's final sink but
  /// absorbs the flush (see class comment).
  class Boundary : public core::BlockSink {
   public:
    explicit Boundary(core::BlockSink& inner) : inner_(&inner) {}
    void Consume(core::Block block) override {
      inner_->Consume(std::move(block));
    }
    bool Done() const override { return inner_->Done(); }
    void Flush() override {}
   private:
    core::BlockSink* inner_;
  };

  std::vector<std::unique_ptr<PipelineStage>> stages_;
  /// One counting interposer downstream of each stage (wiring order, so
  /// observers_[i] measures what stages_[i] emits).
  std::vector<std::unique_ptr<core::BlockSink>> observers_;
  std::unique_ptr<Boundary> boundary_;
  core::BlockSink* head_ = nullptr;
  obs::TraceId trace_ = 0;
  std::unique_ptr<obs::ObsSpan> span_;  // chain lifetime (until Flush)
};

/// An ordered sequence of prototype stages. The pipeline itself holds no
/// run state: Instantiate() clones every stage into a fresh wired Chain,
/// so a const Pipeline can serve many runs concurrently (the sharded
/// engine runs one chain per record shard when the pipeline executes
/// inside a PipelinedBlocker).
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  void Add(std::unique_ptr<PipelineStage> stage) {
    stages_.push_back(std::move(stage));
  }

  bool empty() const { return stages_.empty(); }
  size_t size() const { return stages_.size(); }
  const std::vector<std::unique_ptr<PipelineStage>>& stages() const {
    return stages_;
  }

  /// " | "-joined stage names, e.g. "purge(max_size=500) | meta(WEP+CBS)".
  std::string name() const;

  /// Clones the stages into a chain emitting into `sink`. `trace` tags
  /// the chain's span and stage observations; 0 mints a fresh id (pass a
  /// request's id to thread serving-path traces through the chain).
  Chain Instantiate(const data::Dataset& dataset, core::BlockSink& sink,
                    obs::TraceId trace = 0) const;

  /// Runs `technique` through a fresh chain into `sink` and flushes.
  void Run(const core::BlockingTechnique& technique,
           const data::Dataset& dataset, core::BlockSink& sink,
           obs::TraceId trace = 0) const;

 private:
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

/// A blocking technique with a pipeline bolted on: Run() sends the
/// wrapped generator's blocks through the stage chain. This is how a
/// pipeline drops into every existing technique-shaped slot — the eval
/// harness, the sharded engine (which then applies the whole pipeline
/// independently per record shard), the CLI.
class PipelinedBlocker : public core::BlockingTechnique {
 public:
  PipelinedBlocker(std::unique_ptr<core::BlockingTechnique> blocker,
                   Pipeline stages)
      : blocker_(std::move(blocker)), stages_(std::move(stages)) {}

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override {
    stages_.Run(*blocker_, dataset, sink);
  }

  const core::BlockingTechnique& blocker() const { return *blocker_; }
  const Pipeline& stages() const { return stages_; }

 private:
  std::unique_ptr<core::BlockingTechnique> blocker_;
  Pipeline stages_;
};

/// Builds a PipelinedBlocker from a parsed spec: the generator through
/// api::BlockerRegistry, every stage through StageRegistry. Taken by
/// value — the factories consume the parameter maps.
Status Build(api::PipelineSpec spec, std::unique_ptr<PipelinedBlocker>* out);

/// Parses "blocker | stage | stage" and builds. A bare blocker spec is a
/// zero-stage pipeline.
Status Build(const std::string& spec_string,
             std::unique_ptr<PipelinedBlocker>* out);

/// Value-returning form: every malformed pipeline spec (unknown blocker
/// or stage, bad parameter, empty segment) is a diagnostic Status, never
/// a CHECK failure.
inline StatusOr<std::unique_ptr<PipelinedBlocker>> Build(
    const std::string& spec_string) {
  std::unique_ptr<PipelinedBlocker> built;
  Status status = Build(spec_string, &built);
  if (!status.ok()) return status;
  return built;
}

}  // namespace sablock::pipeline

#endif  // SABLOCK_PIPELINE_PIPELINE_H_
