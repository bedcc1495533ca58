#include "engine/execution_spec.h"

#include "api/param_map.h"

namespace sablock::engine {

std::string ExecutionSpec::ToString() const {
  std::string text = "threads=" + std::to_string(threads) +
                     ",shards=" + std::to_string(shards) + ",merge=";
  text += merge == Merge::kCollect ? "collect" : "stream";
  return text;
}

Status ExecutionSpec::Parse(const std::string& text, ExecutionSpec* out) {
  api::ParamMap params;
  Status status = api::ParamMap::Parse(text, &params);
  if (!status.ok()) return status;

  ExecutionSpec spec;
  spec.threads = params.GetInt("threads", spec.threads);
  spec.shards = params.GetInt("shards", spec.shards);
  spec.merge = params.GetEnum<Merge>(
      "merge", spec.merge,
      {{"collect", Merge::kCollect}, {"stream", Merge::kStream}});
  status = params.Finish();
  if (!status.ok()) return status;
  if (spec.threads < 1) {
    return Status::Error("param 'threads': must be >= 1");
  }
  if (spec.shards < 1) {
    return Status::Error("param 'shards': must be >= 1");
  }
  *out = spec;
  return Status::Ok();
}

}  // namespace sablock::engine
