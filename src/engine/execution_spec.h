#ifndef SABLOCK_ENGINE_EXECUTION_SPEC_H_
#define SABLOCK_ENGINE_EXECUTION_SPEC_H_

#include <string>

#include "common/status.h"

namespace sablock::engine {

/// How the sharded executor runs a technique over a dataset. The textual
/// form reuses the blocker-spec parameter grammar
/// ("key=val,key=val", see api::ParamMap):
///
///   "threads=4,shards=1,merge=collect"
///
/// Semantics:
///  - threads: worker count (>= 1). Purely an execution property — it
///    never changes the produced blocks. With one shard the workers run
///    inside the technique (feature columns, semantic interpretation,
///    band-key fill, radix sort; see common/parallel.h) and the output is
///    byte-identical to threads=1, block order included; with several
///    shards they run the shards.
///  - shards:  number of record partitions (>= 1, default 1). A
///    computation property, and an explicit opt-in: blocks never span
///    shards, so shards > 1 loses every cross-shard candidate pair and
///    changes the answer.
///  - merge:   collect (default) materializes per-shard results and merges
///    them in shard order — the output BlockCollection is byte-identical
///    for any thread count; stream forwards blocks to the sink as they are
///    produced through a ConcurrentSink — same multiset of blocks, but
///    arrival order depends on scheduling. One shard emits straight into
///    the sink either way.
struct ExecutionSpec {
  enum class Merge { kCollect, kStream };

  int threads = 1;
  int shards = 1;
  Merge merge = Merge::kCollect;

  /// Round-trips through Parse: "threads=4,shards=8,merge=collect".
  std::string ToString() const;

  /// Parses "threads=N,shards=M,merge=collect|stream" (every key
  /// optional; empty text is the default spec). Unknown keys, malformed
  /// values, threads < 1 and shards < 1 are errors.
  static Status Parse(const std::string& text, ExecutionSpec* out);
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_EXECUTION_SPEC_H_
