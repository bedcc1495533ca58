// Registers every blocking technique in the library with the global
// BlockerRegistry. This is the only translation unit outside tests that
// includes concrete technique headers; everything else (CLI, benches,
// examples, future services) builds techniques from spec strings.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/technique_params.h"
#include "baselines/adaptive_sorted_neighbourhood.h"
#include "baselines/blocking_key.h"
#include "baselines/canopy.h"
#include "baselines/meta_blocking.h"
#include "baselines/qgram_indexing.h"
#include "baselines/sorted_neighbourhood.h"
#include "baselines/standard_blocking.h"
#include "baselines/stringmap.h"
#include "baselines/suffix_array.h"
#include "core/iterative_blocker.h"
#include "core/lsh_blocker.h"
#include "core/lsh_variants.h"
#include "pipeline/pipeline.h"
#include "pipeline/stages.h"

namespace sablock::api {
namespace {

using core::BlockingTechnique;

/// Validates the `key` parameter against the SimilarityByName comparators
/// and stores the chosen name in *out; *out is unchanged when the
/// parameter is absent (or invalid — the ParamMap records that error).
void ReadSimilarityName(ParamMap& p, const char* key, std::string* out) {
  const char* chosen = p.GetEnum<const char*>(
      key, nullptr,
      {{"jaro_winkler", "jaro_winkler"},
       {"bigram", "bigram"},
       {"edit", "edit"},
       {"lcs", "lcs"},
       {"jaccard_token", "jaccard_token"},
       {"exact", "exact"}});
  if (chosen != nullptr) *out = chosen;
}

void RegisterKeyBased(BlockerRegistry& r) {
  r.Register(
      {"tblo",
       "standard blocking: records sharing the exact key value form a block",
       {"stdblo", "standard"},
       {AttrsDoc()}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        *out = std::make_unique<baselines::StandardBlocking>(
            KeyFromParams(p));
        return Status::Ok();
      });

  r.Register(
      SortedArrayInfo(
          "array-based sorted neighbourhood: fixed window over sorted keys"),
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key;
        int window = 0;
        Status s = ReadSortedArray(p, &key, &window);
        if (!s.ok()) return s;
        *out = std::make_unique<baselines::SortedNeighbourhoodArray>(
            std::move(key), window);
        return Status::Ok();
      });

  r.Register(
      {"sor-ii",
       "inverted-index sorted neighbourhood: window over unique key values",
       {},
       {AttrsDoc(), {"window", "3", "window over sorted unique keys"}}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int window = p.GetInt("window", 3);
        if (window < 1) return RangeError("window", ">= 1");
        *out = std::make_unique<baselines::SortedNeighbourhoodInvertedIndex>(
            std::move(key), window);
        return Status::Ok();
      });

  r.Register(
      {"sor-mp",
       "multi-pass sorted neighbourhood: one pass per attribute + closure",
       {},
       {AttrsDoc(), {"window", "3", "window size of every pass (>= 2)"}}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        std::vector<std::string> attrs = p.GetStringList("attrs", {});
        if (attrs.empty()) {
          return Status::Error("param 'attrs': at least one attribute "
                               "required (one pass per attribute)");
        }
        int window = p.GetInt("window", 3);
        if (window < 2) return RangeError("window", ">= 2");
        std::vector<baselines::BlockingKeyDef> keys;
        keys.reserve(attrs.size());
        for (const std::string& attr : attrs) {
          keys.push_back(baselines::ExactKey({attr}));
        }
        *out = std::make_unique<baselines::MultiPassSortedNeighbourhood>(
            std::move(keys), window);
        return Status::Ok();
      });

  r.Register(
      {"asor",
       "adaptive sorted neighbourhood: split sorted keys where similarity "
       "drops",
       {},
       {AttrsDoc(),
        {"sim", "jaro_winkler",
         "boundary similarity (jaro_winkler|bigram|edit|lcs|...)"},
        {"threshold", "0.8", "boundary similarity threshold"},
        {"max-block", "50", "run-length cap, 0 = unlimited"}}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        std::string sim = "jaro_winkler";
        ReadSimilarityName(p, "sim", &sim);
        double threshold = p.GetDouble("threshold", 0.8);
        int max_block = p.GetInt("max-block", 50);
        if (max_block < 0) return RangeError("max-block", ">= 0");
        *out = std::make_unique<baselines::AdaptiveSortedNeighbourhood>(
            std::move(key), std::move(sim), threshold,
            static_cast<size_t>(max_block));
        return Status::Ok();
      });

  r.Register(
      {"qgram",
       "q-gram indexing: sub-list keys tolerate a few differing grams",
       {"qgr"},
       {AttrsDoc(),
        {"q", "2", "gram size"},
        {"threshold", "0.8", "minimum kept fraction of grams, in (0,1]"},
        {"max-keys", "64", "sub-list key cap per record"}}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int q = p.GetInt("q", 2);
        double threshold = p.GetDouble("threshold", 0.8);
        int max_keys = p.GetInt("max-keys", 64);
        if (q < 1) return RangeError("q", ">= 1");
        if (threshold <= 0.0 || threshold > 1.0) {
          return RangeError("threshold", "in (0, 1]");
        }
        if (max_keys < 1) return RangeError("max-keys", ">= 1");
        *out = std::make_unique<baselines::QGramIndexing>(
            std::move(key), q, threshold, static_cast<size_t>(max_keys));
        return Status::Ok();
      });
}

void RegisterSuffixAndEmbedding(BlockerRegistry& r) {
  auto suffix_docs = [] {
    return std::vector<ParamDoc>{
        AttrsDoc(),
        {"min-suffix", "4", "minimum indexed suffix length"},
        {"max-block", "20", "discard postings larger than this"}};
  };
  auto suffix_params = [](ParamMap& p, int* min_suffix,
                          size_t* max_block) -> Status {
    *min_suffix = p.GetInt("min-suffix", 4);
    int max_block_i = p.GetInt("max-block", 20);
    if (*min_suffix < 1) return RangeError("min-suffix", ">= 1");
    if (max_block_i < 2) return RangeError("max-block", ">= 2");
    *max_block = static_cast<size_t>(max_block_i);
    return Status::Ok();
  };

  r.Register(
      {"sua", "suffix-array blocking: every BKV suffix becomes an index key",
       {"suffix"}, suffix_docs()},
      [suffix_params](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int min_suffix = 0;
        size_t max_block = 0;
        Status s = suffix_params(p, &min_suffix, &max_block);
        if (!s.ok()) return s;
        *out = std::make_unique<baselines::SuffixArrayBlocking>(
            std::move(key), min_suffix, max_block);
        return Status::Ok();
      });

  r.Register(
      {"suas", "suffix-array blocking over all substrings", {},
       suffix_docs()},
      [suffix_params](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int min_suffix = 0;
        size_t max_block = 0;
        Status s = suffix_params(p, &min_suffix, &max_block);
        if (!s.ok()) return s;
        *out = std::make_unique<baselines::SuffixArrayAllSubstrings>(
            std::move(key), min_suffix, max_block);
        return Status::Ok();
      });

  r.Register(
      {"rsua",
       "robust suffix-array blocking: merge postings of similar adjacent "
       "suffixes",
       {},
       {AttrsDoc(),
        {"min-suffix", "4", "minimum indexed suffix length"},
        {"max-block", "20", "discard postings larger than this"},
        {"sim", "jaro_winkler", "suffix similarity comparator"},
        {"threshold", "0.9", "merge threshold for adjacent suffixes"}}},
      [suffix_params](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int min_suffix = 0;
        size_t max_block = 0;
        Status s = suffix_params(p, &min_suffix, &max_block);
        if (!s.ok()) return s;
        std::string sim = "jaro_winkler";
        ReadSimilarityName(p, "sim", &sim);
        double threshold = p.GetDouble("threshold", 0.9);
        *out = std::make_unique<baselines::RobustSuffixArrayBlocking>(
            std::move(key), min_suffix, max_block, std::move(sim),
            threshold);
        return Status::Ok();
      });

  auto stringmap_common = [](ParamMap& p, int* grid, int* dim,
                             uint64_t* seed) -> Status {
    *grid = p.GetInt("grid", 100);
    *dim = p.GetInt("dim", 15);
    *seed = p.GetUint64("seed", 73);
    if (*grid < 1) return RangeError("grid", ">= 1");
    if (*dim < 2) return RangeError("dim", ">= 2");
    return Status::Ok();
  };

  r.Register(
      {"stmt",
       "StringMap threshold blocking: FastMap embedding + radius search",
       {"stringmap"},
       {AttrsDoc(),
        {"threshold", "0.9", "edit-similarity radius, in (0,1]"},
        {"grid", "100", "grid cells per axis"},
        {"dim", "15", "embedding dimensions (>= 2)"},
        {"seed", "73", "pivot-selection seed"}}},
      [stringmap_common](ParamMap& p,
                         std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        double threshold = p.GetDouble("threshold", 0.9);
        if (threshold <= 0.0 || threshold > 1.0) {
          return RangeError("threshold", "in (0, 1]");
        }
        int grid = 0;
        int dim = 0;
        uint64_t seed = 0;
        Status s = stringmap_common(p, &grid, &dim, &seed);
        if (!s.ok()) return s;
        *out = std::make_unique<baselines::StringMapThreshold>(
            std::move(key), threshold, grid, dim, seed);
        return Status::Ok();
      });

  r.Register(
      {"stmnn",
       "StringMap nearest-neighbour blocking over the embedded space",
       {},
       {AttrsDoc(),
        {"nn", "5", "neighbours per record (>= 1)"},
        {"grid", "100", "grid cells per axis"},
        {"dim", "15", "embedding dimensions (>= 2)"},
        {"seed", "73", "pivot-selection seed"}}},
      [stringmap_common](ParamMap& p,
                         std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        int nn = p.GetInt("nn", 5);
        if (nn < 1) return RangeError("nn", ">= 1");
        int grid = 0;
        int dim = 0;
        uint64_t seed = 0;
        Status s = stringmap_common(p, &grid, &dim, &seed);
        if (!s.ok()) return s;
        *out = std::make_unique<baselines::StringMapNearestNeighbour>(
            std::move(key), nn, grid, dim, seed);
        return Status::Ok();
      });
}

void RegisterCanopyAndMeta(BlockerRegistry& r) {
  r.Register(
      TokenBlockingInfo(
          "token blocking: every distinct token of the key attributes forms "
          "a block (the canonical generator for purge/meta pipeline stages)"),
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        *out = std::make_unique<baselines::TokenBlockingTechnique>(
            ReadTokenBlocking(p));
        return Status::Ok();
      });

  auto canopy_similarity = [](ParamMap& p) {
    return p.GetEnum<baselines::CanopySimilarity>(
        "sim", baselines::CanopySimilarity::kJaccard,
        {{"jaccard", baselines::CanopySimilarity::kJaccard},
         {"tfidf", baselines::CanopySimilarity::kTfIdfCosine}});
  };

  r.Register(
      {"cath",
       "threshold canopy clustering with loose/tight similarity bounds",
       {"canopy"},
       {AttrsDoc(),
        {"sim", "jaccard", "cheap similarity (jaccard|tfidf)"},
        {"loose", "0.4", "canopy-membership threshold"},
        {"tight", "0.8", "removal threshold (>= loose)"},
        {"seed", "31", "seed-record shuffle seed"}}},
      [canopy_similarity](ParamMap& p,
                          std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        baselines::CanopySimilarity sim = canopy_similarity(p);
        double loose = p.GetDouble("loose", 0.4);
        double tight = p.GetDouble("tight", 0.8);
        uint64_t seed = p.GetUint64("seed", 31);
        if (tight < loose) return RangeError("tight", ">= loose");
        *out = std::make_unique<baselines::CanopyThreshold>(
            std::move(key), sim, loose, tight, seed);
        return Status::Ok();
      });

  r.Register(
      {"cann",
       "nearest-neighbour canopy clustering with cardinality bounds",
       {},
       {AttrsDoc(),
        {"sim", "jaccard", "cheap similarity (jaccard|tfidf)"},
        {"n1", "10", "canopy size (most similar candidates)"},
        {"n2", "5", "removed-from-pool count (<= n1)"},
        {"seed", "31", "seed-record shuffle seed"}}},
      [canopy_similarity](ParamMap& p,
                          std::unique_ptr<BlockingTechnique>* out) {
        baselines::BlockingKeyDef key = KeyFromParams(p);
        baselines::CanopySimilarity sim = canopy_similarity(p);
        int n1 = p.GetInt("n1", 10);
        int n2 = p.GetInt("n2", 5);
        uint64_t seed = p.GetUint64("seed", 31);
        if (n1 < 1) return RangeError("n1", ">= 1");
        if (n2 < 1 || n2 > n1) return RangeError("n2", "in [1, n1]");
        *out = std::make_unique<baselines::CanopyNearestNeighbour>(
            std::move(key), sim, n1, n2, seed);
        return Status::Ok();
      });

  r.Register(
      {"meta",
       "meta-blocking: the token-blocking | purge | meta pipeline "
       "(weight, prune, emit pair blocks)",
       {},
       {AttrsDoc(),
        {"weighting", "cbs", "edge weights (arcs|cbs|ecbs|js|ejs)"},
        {"pruning", "wep", "pruning algorithm (wep|cep|wnp|cnp)"},
        {"max-block", "500", "token-block purge size"}}},
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        std::vector<std::string> attrs = p.GetStringList("attrs", {});
        auto weighting = p.GetEnum<baselines::MetaWeighting>(
            "weighting", baselines::MetaWeighting::kCbs,
            {{"arcs", baselines::MetaWeighting::kArcs},
             {"cbs", baselines::MetaWeighting::kCbs},
             {"ecbs", baselines::MetaWeighting::kEcbs},
             {"js", baselines::MetaWeighting::kJs},
             {"ejs", baselines::MetaWeighting::kEjs}});
        auto pruning = p.GetEnum<baselines::MetaPruning>(
            "pruning", baselines::MetaPruning::kWep,
            {{"wep", baselines::MetaPruning::kWep},
             {"cep", baselines::MetaPruning::kCep},
             {"wnp", baselines::MetaPruning::kWnp},
             {"cnp", baselines::MetaPruning::kCnp}});
        int max_block = p.GetInt("max-block", 500);
        if (max_block < 2) return RangeError("max-block", ">= 2");
        pipeline::Pipeline stages;
        stages.Add(std::make_unique<pipeline::PurgeStage>(max_block));
        stages.Add(std::make_unique<pipeline::MetaStage>(weighting, pruning));
        *out = std::make_unique<pipeline::PipelinedBlocker>(
            std::make_unique<baselines::TokenBlockingTechnique>(
                std::move(attrs)),
            std::move(stages));
        return Status::Ok();
      });
}

void RegisterLshFamily(BlockerRegistry& r) {
  r.Register(
      LshInfo("minhash LSH blocking over q-gram shingles (textual only)"),
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        core::LshParams lsh;
        Status s = ReadLsh(p, &lsh);
        if (!s.ok()) return s;
        *out = std::make_unique<core::LshBlocker>(std::move(lsh));
        return Status::Ok();
      });

  r.Register(
      SaLshInfo("semantic-aware LSH (the paper): minhash tables gated by a "
                "w-way semantic hash"),
      [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
        SaLshConfig config;
        Status s = ReadSaLsh(p, &config);
        if (!s.ok()) return s;
        *out = std::make_unique<core::SemanticAwareLshBlocker>(
            std::move(config.lsh), config.sem, std::move(config.semantics));
        return Status::Ok();
      });

  {
    std::vector<ParamDoc> docs = LshDocs();
    docs.push_back({"probes", "2", "extra buckets probed per table"});
    r.Register(
        {"mp-lsh", "multi-probe LSH: probe near-by buckets instead of "
         "adding tables",
         {"mplsh"}, std::move(docs)},
        [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
          core::LshParams lsh;
          Status s = ReadLsh(p, &lsh);
          if (!s.ok()) return s;
          int probes = p.GetInt("probes", 2);
          if (probes < 0) return RangeError("probes", ">= 0");
          *out = std::make_unique<core::MultiProbeLshBlocker>(
              std::move(lsh), probes);
          return Status::Ok();
        });
  }

  {
    std::vector<ParamDoc> docs = LshDocs();
    docs.push_back({"depth", "10", "maximum prefix depth per tree"});
    docs.push_back({"max-block", "25", "split groups larger than this"});
    r.Register(
        {"forest",
         "LSH forest: self-tuning variable-length minhash prefixes",
         {"lsh-forest"}, std::move(docs)},
        [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
          core::LshParams lsh;
          Status s = ReadLsh(p, &lsh);
          if (!s.ok()) return s;
          int depth = p.GetInt("depth", 10);
          int max_block = p.GetInt("max-block", 25);
          if (depth < 1) return RangeError("depth", ">= 1");
          if (max_block < 2) return RangeError("max-block", ">= 2");
          *out = std::make_unique<core::LshForestBlocker>(
              std::move(lsh), depth, static_cast<size_t>(max_block));
          return Status::Ok();
        });
  }

  {
    std::vector<ParamDoc> docs = LshDocs();
    docs.push_back({"merge-threshold", "0.5",
                    "minimum estimated Jaccard to merge, in [0,1]"});
    docs.push_back({"iterations", "3", "hash-merge rounds (>= 1)"});
    r.Register(
        {"harra",
         "HARRA-style iterative LSH: merge co-bucketed records and re-hash",
         {"iter-lsh"}, std::move(docs)},
        [](ParamMap& p, std::unique_ptr<BlockingTechnique>* out) {
          core::LshParams lsh;
          Status s = ReadLsh(p, &lsh);
          if (!s.ok()) return s;
          double merge = p.GetDouble("merge-threshold", 0.5);
          int iterations = p.GetInt("iterations", 3);
          if (merge < 0.0 || merge > 1.0) {
            return RangeError("merge-threshold", "in [0, 1]");
          }
          if (iterations < 1) return RangeError("iterations", ">= 1");
          *out = std::make_unique<core::IterativeLshBlocker>(
              std::move(lsh), merge, iterations);
          return Status::Ok();
        });
  }
}

}  // namespace

template <>
BlockerRegistry& BlockerRegistry::Global() {
  static BlockerRegistry* registry = [] {
    auto* r = new BlockerRegistry("technique");
    RegisterKeyBased(*r);
    RegisterSuffixAndEmbedding(*r);
    RegisterCanopyAndMeta(*r);
    RegisterLshFamily(*r);
    return r;
  }();
  return *registry;
}

}  // namespace sablock::api
