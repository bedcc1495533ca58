#include "engine/execution_spec.h"

#include "api/param_map.h"

namespace sablock::engine {

std::string ExecutionSpec::ToString() const {
  return "threads=" + std::to_string(threads);
}

Status ExecutionSpec::Parse(const std::string& text, ExecutionSpec* out) {
  api::ParamMap params;
  Status status = api::ParamMap::Parse(text, &params);
  if (!status.ok()) return status;

  ExecutionSpec spec;
  spec.threads = params.GetInt("threads", spec.threads);
  status = params.Finish();
  if (!status.ok()) return status;
  if (spec.threads < 1) {
    return Status::Error("param 'threads': must be >= 1");
  }
  *out = spec;
  return Status::Ok();
}

}  // namespace sablock::engine
