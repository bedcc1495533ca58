#include "api/technique_params.h"

#include <utility>

#include "core/domains.h"

namespace sablock::api {

Status RangeError(const std::string& key, const std::string& constraint) {
  return Status::Error("param '" + key + "': must be " + constraint);
}

ParamDoc AttrsDoc() {
  return {"attrs", "", "'+'-separated blocking attributes"};
}

baselines::BlockingKeyDef KeyFromParams(ParamMap& p) {
  return baselines::ExactKey(p.GetStringList("attrs", {}));
}

std::vector<ParamDoc> LshDocs() {
  return {{"k", "4", "minhash rows per table"},
          {"l", "63", "number of hash tables"},
          {"q", "3", "q-gram size for shingling"},
          AttrsDoc(),
          {"seed", "7", "hash-family seed"}};
}

Status ReadLsh(ParamMap& p, core::LshParams* out) {
  out->k = p.GetInt("k", out->k);
  out->l = p.GetInt("l", out->l);
  out->q = p.GetInt("q", out->q);
  out->attributes = p.GetStringList("attrs", {});
  out->seed = p.GetUint64("seed", out->seed);
  if (out->k < 1) return RangeError("k", ">= 1");
  if (out->l < 1) return RangeError("l", ">= 1");
  if (out->q < 1) return RangeError("q", ">= 1");
  if (static_cast<int64_t>(out->k) * out->l > kMaxLshHashes) {
    return Status::Error("params 'k', 'l': k*l must be <= " +
                         std::to_string(kMaxLshHashes) +
                         " minhash rows per record");
  }
  return Status::Ok();
}

BlockerInfo LshInfo(std::string summary) {
  return {"lsh", std::move(summary), {"plain-lsh"}, LshDocs()};
}

BlockerInfo SaLshInfo(std::string summary) {
  std::vector<ParamDoc> docs = LshDocs();
  docs.push_back({"w", "5", "semantic hash width (semhash draws/table)"});
  docs.push_back({"mode", "or", "semantic combination (or|and)"});
  docs.push_back({"domain", "bib", "semantic domain (bib|voter)"});
  docs.push_back({"sem-seed", "11", "semantic-function draw seed"});
  return {"sa-lsh", std::move(summary), {"salsh"}, std::move(docs)};
}

Status ReadSaLsh(ParamMap& p, SaLshConfig* out) {
  enum class DomainKind { kBib, kVoter };
  DomainKind kind = p.GetEnum<DomainKind>(
      "domain", DomainKind::kBib,
      {{"bib", DomainKind::kBib}, {"voter", DomainKind::kVoter}});
  core::Domain domain = kind == DomainKind::kVoter
                            ? core::MakeVoterDomain()
                            : core::MakeBibliographicDomain();
  Status s = ReadLsh(p, &out->lsh);
  if (!s.ok()) return s;
  // The paper's blocking attributes for the domain are the default; an
  // explicit attrs= overrides them.
  if (out->lsh.attributes.empty()) {
    out->lsh.attributes = domain.blocking_attributes;
  }
  out->sem.w = p.GetInt("w", 5);
  out->sem.mode = p.GetEnum<core::SemanticMode>(
      "mode", core::SemanticMode::kOr,
      {{"or", core::SemanticMode::kOr}, {"and", core::SemanticMode::kAnd}});
  out->sem.seed = p.GetUint64("sem-seed", 11);
  if (out->sem.w < 1) return RangeError("w", ">= 1");
  out->semantics = std::move(domain.semantics);
  return Status::Ok();
}

BlockerInfo TokenBlockingInfo(std::string summary) {
  return {"token-blocking", std::move(summary), {"token"}, {AttrsDoc()}};
}

std::vector<std::string> ReadTokenBlocking(ParamMap& p) {
  return p.GetStringList("attrs", {});
}

BlockerInfo SortedArrayInfo(std::string summary) {
  return {"sor-a",
          std::move(summary),
          {"sorted", "sorn"},
          {AttrsDoc(), {"window", "3", "sliding-window size (>= 2)"}}};
}

Status ReadSortedArray(ParamMap& p, baselines::BlockingKeyDef* key,
                       int* window) {
  *key = KeyFromParams(p);
  *window = p.GetInt("window", 3);
  if (*window < 2) return RangeError("window", ">= 2");
  return Status::Ok();
}

}  // namespace sablock::api
