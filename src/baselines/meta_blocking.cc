#include "baselines/meta_blocking.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/group_by_key.h"
#include "features/feature_store.h"
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

}  // namespace sablock::baselines
