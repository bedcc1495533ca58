#ifndef SABLOCK_ENGINE_EXECUTION_SPEC_H_
#define SABLOCK_ENGINE_EXECUTION_SPEC_H_

#include <string>

#include "common/status.h"

namespace sablock::engine {

/// How the executor runs a technique over a dataset. The textual form
/// reuses the blocker-spec parameter grammar ("key=val,...", see
/// api::ParamMap):
///
///   "threads=4"
///
/// threads is the worker count (>= 1). It is purely an execution
/// property: the workers run inside the technique (feature columns,
/// semantic interpretation, band-key fill, radix sort; see
/// common/parallel.h) and the output is byte-identical to threads=1,
/// block order included.
struct ExecutionSpec {
  int threads = 1;
  /// Must be 1; kept so existing callers compile.
  int shards = 1;

  /// Round-trips through Parse: "threads=4".
  std::string ToString() const;

  /// Parses "threads=N" (the key is optional; empty text is the default
  /// spec). Unknown keys, malformed values and threads < 1 are errors.
  static Status Parse(const std::string& text, ExecutionSpec* out);
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_EXECUTION_SPEC_H_
