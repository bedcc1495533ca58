#ifndef SABLOCK_CORE_SEMANTIC_H_
#define SABLOCK_CORE_SEMANTIC_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/taxonomy.h"
#include "data/record.h"

namespace sablock::core {

/// A semantic function ζ : R -> P(C_T) (Definition 4.2). Maps each record
/// to a set of taxonomy concepts — its semantic interpretation — satisfying
///  (a) Specificity: no concept in ζ(r) subsumes another member, and
///  (b) Isolation: ζ(r) is computed from r alone.
/// Implementations must return concepts pruned to the most specific set;
/// use Taxonomy::PruneToMostSpecific to enforce (a).
class SemanticFunction {
 public:
  virtual ~SemanticFunction() = default;

  /// The semantic interpretation ζ(r) of record `id`. May be empty for
  /// records with no recognizable semantics.
  virtual std::vector<ConceptId> Interpret(const data::Dataset& dataset,
                                           data::RecordId id) const = 0;

  /// The taxonomy this function interprets into.
  virtual const Taxonomy& taxonomy() const = 0;

  /// Interprets every record of the dataset, by record range on the
  /// installed workers (common/parallel.h): Interpret must be safe to
  /// call concurrently for distinct records, as Isolation implies.
  std::vector<std::vector<ConceptId>> InterpretAll(
      const data::Dataset& dataset) const;
};

/// Predicate over one attribute of a record, used by RuleSemanticFunction.
struct AttributePredicate {
  enum class Kind {
    kPresent,  ///< attribute value is non-empty
    kMissing,  ///< attribute value is empty
    kEquals,   ///< attribute value equals `value` exactly
  };
  std::string attribute;
  Kind kind = Kind::kPresent;
  std::string value;  ///< only for kEquals

  static AttributePredicate Present(std::string attr) {
    return {std::move(attr), Kind::kPresent, ""};
  }
  static AttributePredicate Missing(std::string attr) {
    return {std::move(attr), Kind::kMissing, ""};
  }
  static AttributePredicate Equals(std::string attr, std::string value) {
    return {std::move(attr), Kind::kEquals, std::move(value)};
  }
};

/// One rule: if all conditions hold, the record is related to `concepts`
/// (concept names). Names absent from the taxonomy are resolved through the
/// `fallback` parent map (the paper's Section 6.3.3 behaviour: records
/// related to a concept missing from a taxonomy variant become related to
/// its parent concept instead).
struct SemanticRule {
  std::vector<AttributePredicate> conditions;
  std::vector<std::string> concepts;
};

/// Rule-table semantic function. Supports both of the paper's semantic
/// functions: the missing-value-pattern function for Cora (Table 1) and the
/// attribute-value function for NC Voter. Matching is first-match-wins by
/// default (Table 1 patterns are mutually exclusive); with
/// `accumulate_matches`, all matching rules contribute concepts (used for
/// per-attribute value rules).
class RuleSemanticFunction : public SemanticFunction {
 public:
  /// `fallback` maps a concept name to the name to use when it is absent
  /// from `taxonomy` (applied transitively).
  RuleSemanticFunction(Taxonomy taxonomy, std::vector<SemanticRule> rules,
                       std::unordered_map<std::string, std::string> fallback =
                           {},
                       bool accumulate_matches = false);

  std::vector<ConceptId> Interpret(const data::Dataset& dataset,
                                   data::RecordId id) const override;

  const Taxonomy& taxonomy() const override { return taxonomy_; }

 private:
  struct ResolvedRule {
    std::vector<AttributePredicate> conditions;
    std::vector<ConceptId> concepts;
  };

  ConceptId ResolveName(
      const std::string& name,
      const std::unordered_map<std::string, std::string>& fallback) const;

  Taxonomy taxonomy_;
  std::vector<ResolvedRule> rules_;
  bool accumulate_matches_;
};

/// Adapter wrapping an arbitrary callable as a semantic function. The
/// callable receives (dataset, record id) and returns concept ids; results
/// are pruned to the most specific set automatically. InterpretAll calls
/// it from several threads at once, for distinct records, when the run
/// has workers installed (engine threads > 1), so it must be safe to call
/// concurrently.
class LambdaSemanticFunction : public SemanticFunction {
 public:
  using Fn = std::function<std::vector<ConceptId>(const data::Dataset&,
                                                  data::RecordId)>;

  LambdaSemanticFunction(Taxonomy taxonomy, Fn fn)
      : taxonomy_(std::move(taxonomy)), fn_(std::move(fn)) {}

  std::vector<ConceptId> Interpret(const data::Dataset& dataset,
                                   data::RecordId id) const override {
    std::vector<ConceptId> zeta = fn_(dataset, id);
    taxonomy_.PruneToMostSpecific(&zeta);
    return zeta;
  }

  const Taxonomy& taxonomy() const override { return taxonomy_; }

 private:
  Taxonomy taxonomy_;
  Fn fn_;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_SEMANTIC_H_
