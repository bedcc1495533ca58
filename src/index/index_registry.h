#ifndef SABLOCK_INDEX_INDEX_REGISTRY_H_
#define SABLOCK_INDEX_INDEX_REGISTRY_H_

#include "api/registry.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// IncrementalIndex factories by spec name, the serving side of
/// api::BlockerRegistry. Names, aliases and parameters are the batch
/// techniques' (both sides read them through api/technique_params.h), so
/// one spec string ("sa-lsh:k=4,l=12,domain=bib") describes the batch
/// technique and its incremental index; the index/batch parity goldens
/// build both sides from the same string. The built-ins register in
/// builtin_indexes.cc.
using IndexRegistry = api::Registry<IncrementalIndex>;

}  // namespace sablock::index

namespace sablock::api {
template <>
index::IndexRegistry& index::IndexRegistry::Global();
}  // namespace sablock::api

#endif  // SABLOCK_INDEX_INDEX_REGISTRY_H_
