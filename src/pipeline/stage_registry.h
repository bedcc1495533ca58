#ifndef SABLOCK_PIPELINE_STAGE_REGISTRY_H_
#define SABLOCK_PIPELINE_STAGE_REGISTRY_H_

#include "api/registry.h"
#include "pipeline/stage.h"

namespace sablock::pipeline {

/// Pipeline stages by spec name: pipeline specs name their stages
/// ("purge:max_size=500") and this registry constructs them, so callers
/// compose post-processing chains from strings without including any
/// concrete stage header. The built-ins register in stages.cc.
using StageRegistry = api::Registry<PipelineStage>;

}  // namespace sablock::pipeline

namespace sablock::api {
template <>
pipeline::StageRegistry& pipeline::StageRegistry::Global();
}  // namespace sablock::api

#endif  // SABLOCK_PIPELINE_STAGE_REGISTRY_H_
