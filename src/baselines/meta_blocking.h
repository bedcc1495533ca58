#ifndef SABLOCK_BASELINES_META_BLOCKING_H_
#define SABLOCK_BASELINES_META_BLOCKING_H_

#include <string>
#include <vector>

#include "core/blocking.h"
#include "pipeline/meta_graph.h"

namespace sablock::baselines {

// Meta-blocking itself is the pipeline `token-blocking | purge | meta`
// (the `meta` registry entry builds exactly that PipelinedBlocker); its
// graph phase is pipeline::MetaPrune. These aliases keep the baselines::
// spellings of the weighting/pruning enums for the benches and tests
// that sweep the Fig. 12 grid.
using MetaWeighting = pipeline::MetaWeighting;
using MetaPruning = pipeline::MetaPruning;
using pipeline::MetaPruningName;
using pipeline::MetaWeightingName;

/// Token blocking: the canonical schema-agnostic input of meta-blocking.
/// Every distinct token of the key attributes becomes a block; blocks
/// are emitted in canonical content order (registered as
/// "token-blocking"). Purging oversized blocks is not this technique's
/// job — compose with the `purge` pipeline stage.
class TokenBlockingTechnique : public core::BlockingTechnique {
 public:
  explicit TokenBlockingTechnique(std::vector<std::string> attributes);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
};

/// Collecting convenience wrapper: token blocking with the standard
/// block-purging step — a `token-blocking | purge:max_size=` pipeline.
core::BlockCollection TokenBlocking(const data::Dataset& dataset,
                                    const std::vector<std::string>& attributes,
                                    size_t max_block_size);

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_META_BLOCKING_H_
