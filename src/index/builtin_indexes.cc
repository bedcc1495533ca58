// Registers every incremental index with the global IndexRegistry. Names,
// aliases, parameters and their checks come from the same readers the
// batch techniques use (api/technique_params.h), so one spec string
// describes both sides and the parity goldens build both from it.

#include <memory>
#include <string>
#include <utility>

#include "api/technique_params.h"
#include "index/index_registry.h"
#include "index/lsh_index.h"
#include "index/sorted_index.h"
#include "index/token_index.h"

namespace sablock::index {
namespace {

void RegisterBuiltinIndexes(IndexRegistry& r) {
  r.Register(api::LshInfo("incremental minhash-LSH banding tables"),
             [](api::ParamMap& p, std::unique_ptr<IncrementalIndex>* out) {
               core::LshParams lsh;
               Status s = api::ReadLsh(p, &lsh);
               if (!s.ok()) return s;
               *out = std::make_unique<LshIndex>(std::move(lsh));
               return Status::Ok();
             });

  r.Register(
      api::SaLshInfo("incremental semantic-aware LSH: banding tables gated "
                     "by a w-way semantic hash"),
      [](api::ParamMap& p, std::unique_ptr<IncrementalIndex>* out) {
        api::SaLshConfig config;
        Status s = api::ReadSaLsh(p, &config);
        if (!s.ok()) return s;
        *out = std::make_unique<SaLshIndex>(
            std::move(config.lsh), config.sem, std::move(config.semantics));
        return Status::Ok();
      });

  r.Register(
      api::TokenBlockingInfo("incremental token-blocking postings"),
      [](api::ParamMap& p, std::unique_ptr<IncrementalIndex>* out) {
        *out = std::make_unique<TokenPostingsIndex>(api::ReadTokenBlocking(p));
        return Status::Ok();
      });

  r.Register(
      api::SortedArrayInfo("incremental array-based sorted neighbourhood: "
                           "fixed window over key-sorted records"),
      [](api::ParamMap& p, std::unique_ptr<IncrementalIndex>* out) {
        baselines::BlockingKeyDef key;
        int window = 0;
        Status s = api::ReadSortedArray(p, &key, &window);
        if (!s.ok()) return s;
        *out = std::make_unique<SortedWindowIndex>(std::move(key), window);
        return Status::Ok();
      });
}

}  // namespace
}  // namespace sablock::index

namespace sablock::api {

template <>
index::IndexRegistry& index::IndexRegistry::Global() {
  static index::IndexRegistry* registry = [] {
    auto* r = new index::IndexRegistry("index");
    index::RegisterBuiltinIndexes(*r);
    return r;
  }();
  return *registry;
}

}  // namespace sablock::api
