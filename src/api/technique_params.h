#ifndef SABLOCK_API_TECHNIQUE_PARAMS_H_
#define SABLOCK_API_TECHNIQUE_PARAMS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/param_map.h"
#include "api/registry.h"
#include "baselines/blocking_key.h"
#include "common/status.h"
#include "core/lsh_blocker.h"
#include "core/semantic.h"

namespace sablock::api {

// Parameter readers for the techniques that exist both as a batch
// technique (builtin_blockers.cc) and as an incremental index
// (index/builtin_indexes.cc). Each reader owns the technique's name,
// aliases and ParamDocs, its parsing and its range checks; both
// registries call it, so one spec string means the same thing on both
// sides by construction. Each side supplies only its own summary.

/// "param '<key>': must be <constraint>".
Status RangeError(const std::string& key, const std::string& constraint);

/// The shared "attrs" parameter doc.
ParamDoc AttrsDoc();

/// Exact-value blocking key over the '+'-separated "attrs" parameter.
baselines::BlockingKeyDef KeyFromParams(ParamMap& p);

/// Largest k*l an LSH-family spec may ask for. Every record carries k*l
/// minhash rows and an index allocates them (and its l tables) when it
/// is constructed, so an unbounded product overflows `int` or asks for
/// gigabytes; 65,536 is far above every configuration the paper or this
/// repo uses (the largest is 4*63 = 252).
inline constexpr int64_t kMaxLshHashes = 65536;

/// k, l, q, attrs and seed, shared by the whole minhash-LSH family
/// (lsh, sa-lsh, mp-lsh, forest, harra).
std::vector<ParamDoc> LshDocs();

/// Reads and range-checks the LshDocs() parameters: k, l, q >= 1 and
/// k*l <= kMaxLshHashes.
Status ReadLsh(ParamMap& p, core::LshParams* out);

/// lsh: {"lsh", summary, {"plain-lsh"}, LshDocs()}; read with ReadLsh.
BlockerInfo LshInfo(std::string summary);

/// A parsed sa-lsh spec: the LSH parameters (attrs default to the
/// domain's blocking attributes), the w-way semantic hash parameters and
/// the domain's semantic function.
struct SaLshConfig {
  core::LshParams lsh;
  core::SemanticParams sem;
  std::shared_ptr<const core::SemanticFunction> semantics;
};

/// sa-lsh: LshDocs() plus w, mode, domain and sem-seed.
BlockerInfo SaLshInfo(std::string summary);
Status ReadSaLsh(ParamMap& p, SaLshConfig* out);

/// token-blocking: attrs only.
BlockerInfo TokenBlockingInfo(std::string summary);
std::vector<std::string> ReadTokenBlocking(ParamMap& p);

/// sor-a: an exact key over attrs and a window >= 2.
BlockerInfo SortedArrayInfo(std::string summary);
Status ReadSortedArray(ParamMap& p, baselines::BlockingKeyDef* key,
                       int* window);

}  // namespace sablock::api

#endif  // SABLOCK_API_TECHNIQUE_PARAMS_H_
