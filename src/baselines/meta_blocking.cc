#include "baselines/meta_blocking.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/group_by_key.h"
#include "features/feature_store.h"
#include "pipeline/pipeline.h"
#include "pipeline/stages.h"

namespace sablock::baselines {

TokenBlockingTechnique::TokenBlockingTechnique(
    std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {}

std::string TokenBlockingTechnique::name() const { return "TokenBlocking"; }

void TokenBlockingTechnique::Run(const data::Dataset& dataset,
                                 core::BlockSink& sink) const {
  // Postings over the interned token ids of the shared token column — no
  // string hashing or tokenization here, just id-indexed appends.
  features::FeatureView::TokenHandle tokens =
      dataset.features().TokensFor(attributes_);
  // Postings grouped by token id: the grouping core's footprint follows
  // the (token, record) occurrences this run touches, not token_limit —
  // which covers the whole column even when this run is one small shard
  // slice of it.
  core::GroupByKey postings;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    for (features::TokenId token : tokens.Tokens(id)) {
      postings.Add(token, id);
    }
  }
  // Emit in canonical content order: downstream pruning should see blocks
  // ordered by what they contain, not by how the vocabulary happened to
  // be discovered. Singleton blocks carry no comparisons and are skipped.
  std::vector<core::Block> kept;
  postings.ForEachGroup(
      [&kept](uint64_t, std::span<const data::RecordId> ids) {
        kept.emplace_back(ids.begin(), ids.end());
        return true;
      });
  std::sort(kept.begin(), kept.end());
  for (core::Block& block : kept) {
    if (sink.Done()) break;
    sink.Consume(std::move(block));
  }
}

core::BlockCollection TokenBlocking(
    const data::Dataset& dataset, const std::vector<std::string>& attributes,
    size_t max_block_size) {
  core::BlockCollection out;
  pipeline::PurgeStage purge(max_block_size);
  purge.Attach(dataset, out);
  TokenBlockingTechnique(attributes).Run(dataset, purge);
  purge.Flush();
  return out;
}

MetaBlocking::MetaBlocking(std::vector<std::string> attributes,
                           MetaWeighting weighting, MetaPruning pruning,
                           size_t max_block_size)
    : attributes_(std::move(attributes)),
      weighting_(weighting),
      pruning_(pruning),
      max_block_size_(max_block_size) {}

std::string MetaBlocking::name() const {
  return std::string("Meta(") + MetaPruningName(pruning_) + "+" +
         MetaWeightingName(weighting_) + ")";
}

void MetaBlocking::Run(const data::Dataset& dataset,
                       core::BlockSink& sink) const {
  // The baseline is literally the pipeline `token-blocking | purge |
  // meta`: purge streams, meta buffers and runs its graph phase on the
  // flush (which Pipeline::Run stops at the chain boundary — a technique
  // never flushes its caller's sink).
  pipeline::Pipeline stages;
  stages.Add(std::make_unique<pipeline::PurgeStage>(max_block_size_));
  stages.Add(std::make_unique<pipeline::MetaStage>(weighting_, pruning_));
  stages.Run(TokenBlockingTechnique(attributes_), dataset, sink);
}

core::BlockCollection MetaBlocking::Prune(
    const data::Dataset& dataset, const core::BlockCollection& input) const {
  return pipeline::MetaPrune(dataset.size(), input, weighting_, pruning_);
}

}  // namespace sablock::baselines
