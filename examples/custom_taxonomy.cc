// Bring-your-own domain: build a custom taxonomy and semantic function for
// a product-catalogue deduplication task and plug them into SA-LSH. Shows
// the three extension points a downstream user touches:
//   1. core::Taxonomy          — the domain's concept tree(s),
//   2. core::RuleSemanticFunction (or LambdaSemanticFunction) — how a
//      record maps to concepts (a LambdaSemanticFunction callable must be
//      safe to call concurrently for distinct records: engine runs at
//      threads > 1 interpret records in parallel),
//   3. core::SemanticAwareLshBlocker — the blocker itself.
//
// Usage: ./build/examples/custom_taxonomy

#include <cstdio>
#include <memory>

#include "core/lsh_blocker.h"
#include "core/semantic.h"
#include "eval/metrics.h"

using sablock::core::AttributePredicate;
using sablock::core::RuleSemanticFunction;
using sablock::core::SemanticRule;
using sablock::core::Taxonomy;

int main() {
  // 1. A product taxonomy: electronics vs clothing, with subtypes.
  Taxonomy taxonomy;
  auto product = taxonomy.AddConcept("product");
  auto electronics = taxonomy.AddConcept("electronics", product);
  taxonomy.AddConcept("phone", electronics);
  taxonomy.AddConcept("laptop", electronics);
  taxonomy.AddConcept("camera", electronics);
  auto clothing = taxonomy.AddConcept("clothing", product);
  taxonomy.AddConcept("shoes", clothing);
  taxonomy.AddConcept("jacket", clothing);
  taxonomy.Finalize();

  // 2. A semantic function over the catalogue's `category` column; unknown
  //    or missing categories fall back to broader concepts.
  std::vector<SemanticRule> rules = {
      {{AttributePredicate::Equals("category", "phone")}, {"phone"}},
      {{AttributePredicate::Equals("category", "laptop")}, {"laptop"}},
      {{AttributePredicate::Equals("category", "camera")}, {"camera"}},
      {{AttributePredicate::Equals("category", "shoes")}, {"shoes"}},
      {{AttributePredicate::Equals("category", "jacket")}, {"jacket"}},
      {{AttributePredicate::Equals("category", "electronics")},
       {"electronics"}},
      {{AttributePredicate::Equals("category", "clothing")}, {"clothing"}},
      {{}, {"product"}},  // catch-all: unknown category
  };
  auto semantics = std::make_shared<RuleSemanticFunction>(
      taxonomy, std::move(rules));

  // 3. A small catalogue with listing-style duplicates: same item sold
  //    under slightly different names, sometimes with a missing category.
  sablock::data::Dataset d{
      sablock::data::Schema({"name", "brand", "category"})};
  auto add = [&d](const char* name, const char* brand, const char* category,
                  sablock::data::EntityId e) {
    d.Add({{name, brand, category}}, e);
  };
  add("galaxy s9 smartphone 64gb black", "samsung", "phone", 0);
  add("galaxy s9 smart phone 64 gb, black", "samsung", "phone", 0);
  add("galaxy s9 phone case black", "generic", "jacket", 1);  // accessory!
  add("thinkpad x1 carbon laptop 14in", "lenovo", "laptop", 2);
  add("thinkpad x1 carbon 14 inch laptop", "lenovo", "", 2);
  add("trail running shoes x1 carbon black", "salomon", "shoes", 3);

  sablock::core::LshParams lsh;
  lsh.k = 1;  // permissive bands: moderately similar names collide
  lsh.l = 12;
  lsh.q = 3;
  lsh.attributes = {"name", "brand"};

  sablock::core::LshBlocker textual(lsh);
  sablock::core::BlockCollection text_blocks;  // collecting sink
  textual.Run(d, text_blocks);

  sablock::core::SemanticParams sem;
  sem.w = 5;  // full signature width
  sem.mode = sablock::core::SemanticMode::kOr;
  sablock::core::SemanticAwareLshBlocker sa(lsh, sem, semantics);
  sablock::core::BlockCollection sa_blocks;
  sa.Run(d, sa_blocks);

  std::printf(
      "textual LSH : %s\n",
      sablock::eval::Summary(sablock::eval::Evaluate(d, text_blocks))
          .c_str());
  std::printf(
      "SA-LSH      : %s\n\n",
      sablock::eval::Summary(sablock::eval::Evaluate(d, sa_blocks))
          .c_str());

  // The phone-case listing (id 2) is textually close to the phones but
  // semantically a clothing-side item; SA-LSH keeps it apart. The laptop
  // with missing category (id 4) still matches its duplicate because the
  // catch-all concept subsumes 'laptop'.
  std::printf("phone vs phone-case  — LSH: %s, SA-LSH: %s\n",
              text_blocks.InSameBlock(0, 2) ? "co-blocked" : "apart",
              sa_blocks.InSameBlock(0, 2) ? "co-blocked" : "apart");
  std::printf("laptop vs laptop(?)  — LSH: %s, SA-LSH: %s\n",
              text_blocks.InSameBlock(3, 4) ? "co-blocked" : "apart",
              sa_blocks.InSameBlock(3, 4) ? "co-blocked" : "apart");
  return 0;
}
