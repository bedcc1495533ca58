#include "index/token_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "index/sorted_ids.h"

namespace sablock::index {

TokenPostingsIndex::TokenPostingsIndex(std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {}

std::string TokenPostingsIndex::name() const { return "TokenIndex"; }

Status TokenPostingsIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status s = ResolveAttributes(schema, attributes_, &attr_index_);
  if (!s.ok()) return s;
  bound_ = true;
  return Status::Ok();
}

std::vector<std::string> TokenPostingsIndex::TokensOf(
    std::span<const std::string_view> values) const {
  // The batch token column's text and tokenization: distinct sorted
  // words of the blocking text.
  std::vector<std::string> tokens =
      SplitWords(data::BlockingText(values, attr_index_));
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

void TokenPostingsIndex::Insert(data::RecordId id,
                                std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(record_tokens_.count(id) == 0, "record id already live");
  std::vector<std::string> tokens = TokensOf(values);
  for (const std::string& token : tokens) {
    InsertSortedId(&postings_[token], id);
  }
  record_tokens_.emplace(id, std::move(tokens));
  ++live_;
}

bool TokenPostingsIndex::Remove(data::RecordId id) {
  auto it = record_tokens_.find(id);
  if (it == record_tokens_.end()) return false;
  for (const std::string& token : it->second) {
    auto posting = postings_.find(token);
    SABLOCK_CHECK(posting != postings_.end());
    EraseSortedId(&posting->second, id);
    if (posting->second.empty()) postings_.erase(posting);
  }
  record_tokens_.erase(it);
  --live_;
  return true;
}

std::vector<data::RecordId> TokenPostingsIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  std::vector<data::RecordId> out;
  for (const std::string& token : TokensOf(values)) {
    auto it = postings_.find(token);
    if (it == postings_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TokenPostingsIndex::EmitBlocks(core::BlockSink& sink) const {
  // Identical to the batch technique's emission: postings with >= 2
  // records, in canonical content order.
  std::vector<core::Block> kept;
  for (const auto& [token, ids] : postings_) {
    if (ids.size() >= 2) kept.push_back(ids);
  }
  std::sort(kept.begin(), kept.end());
  for (core::Block& block : kept) {
    if (sink.Done()) break;
    sink.Consume(std::move(block));
  }
}

}  // namespace sablock::index
