#include "core/semantic.h"

#include "common/check.h"
#include "common/parallel.h"

namespace sablock::core {

std::vector<std::vector<ConceptId>> SemanticFunction::InterpretAll(
    const data::Dataset& dataset) const {
  std::vector<std::vector<ConceptId>> out(dataset.size());
  ParallelFor(out.size(), kRecordGrain, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      out[id] = Interpret(dataset, static_cast<data::RecordId>(id));
    }
  });
  return out;
}

RuleSemanticFunction::RuleSemanticFunction(
    Taxonomy taxonomy, std::vector<SemanticRule> rules,
    std::unordered_map<std::string, std::string> fallback,
    bool accumulate_matches)
    : taxonomy_(std::move(taxonomy)), accumulate_matches_(accumulate_matches) {
  SABLOCK_CHECK_MSG(taxonomy_.finalized(),
                    "taxonomy must be finalized before building rules");
  rules_.reserve(rules.size());
  for (SemanticRule& rule : rules) {
    ResolvedRule resolved;
    resolved.conditions = std::move(rule.conditions);
    for (const std::string& name : rule.concepts) {
      ConceptId id = ResolveName(name, fallback);
      if (id != kInvalidConcept) resolved.concepts.push_back(id);
    }
    rules_.push_back(std::move(resolved));
  }
}

ConceptId RuleSemanticFunction::ResolveName(
    const std::string& name,
    const std::unordered_map<std::string, std::string>& fallback) const {
  std::string current = name;
  // Walk the fallback chain until the concept exists in the taxonomy; bound
  // the walk to avoid cycles in a malformed fallback map.
  for (size_t hops = 0; hops <= fallback.size(); ++hops) {
    ConceptId id = taxonomy_.Find(current);
    if (id != kInvalidConcept) return id;
    auto it = fallback.find(current);
    if (it == fallback.end()) return kInvalidConcept;
    current = it->second;
  }
  return kInvalidConcept;
}

std::vector<ConceptId> RuleSemanticFunction::Interpret(
    const data::Dataset& dataset, data::RecordId id) const {
  std::vector<ConceptId> zeta;
  for (const ResolvedRule& rule : rules_) {
    bool matches = true;
    for (const AttributePredicate& pred : rule.conditions) {
      std::string_view v = dataset.Value(id, pred.attribute);
      switch (pred.kind) {
        case AttributePredicate::Kind::kPresent:
          matches = !v.empty();
          break;
        case AttributePredicate::Kind::kMissing:
          matches = v.empty();
          break;
        case AttributePredicate::Kind::kEquals:
          matches = (v == pred.value);
          break;
      }
      if (!matches) break;
    }
    if (matches) {
      zeta.insert(zeta.end(), rule.concepts.begin(), rule.concepts.end());
      if (!accumulate_matches_) break;
    }
  }
  taxonomy_.PruneToMostSpecific(&zeta);
  return zeta;
}

}  // namespace sablock::core
