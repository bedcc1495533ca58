// Deterministic mutation fuzzing of every spec-string parser: a mutated
// technique, stage, index, pipeline, budget or execution spec must come
// back as a built product or a non-empty diagnostic Status — never a
// CHECK abort, an exception, or (under the ASan leg, which runs this
// test) a memory error. Seeds are every registered name with its
// documented parameters plus hand-written pipeline, Budget and
// ExecutionSpec strings; the mutations are byte flips, inserted
// separator characters, truncation, duplication and digit runs, drawn
// from a fixed-seed generator so any failure reproduces. No external
// fuzzer or corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/budget.h"
#include "engine/execution_spec.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"

namespace sablock {
namespace {

constexpr uint64_t kFuzzSeed = 0x5eedf00d;
constexpr int kMutantsPerSeed = 400;

/// "name:key=default,..." for every entry, with a real attribute list
/// where the documented default is empty.
void AddRegistrySeeds(const std::vector<api::BlockerInfo>& infos,
                      std::vector<std::string>* seeds) {
  for (const api::BlockerInfo& info : infos) {
    std::string spec = info.name;
    char separator = ':';
    for (const api::ParamDoc& param : info.params) {
      spec += separator;
      separator = ',';
      spec += param.name + "=" +
              (param.default_value.empty() ? "authors+title"
                                           : param.default_value);
    }
    seeds->push_back(spec);
    for (const std::string& alias : info.aliases) seeds->push_back(alias);
  }
}

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds;
  AddRegistrySeeds(api::BlockerRegistry::Global().List(), &seeds);
  AddRegistrySeeds(pipeline::StageRegistry::Global().List(), &seeds);
  AddRegistrySeeds(index::IndexRegistry::Global().List(), &seeds);
  for (const char* spec :
       {"token-blocking:attrs=authors+title | purge:max_size=500 | "
        "meta:weight=cbs,prune=wep",
        "lsh:k=4,l=16,q=3,attrs=authors+title | filter:min_size=2,"
        "top_frac=0.5",
        "sa-lsh:k=4,l=12,w=5,mode=or,domain=bib | "
        "progressive:sched=ew-cbs,pairs=100,seconds=2",
        "sor-a:window=3,attrs=title | cap:budget=1000",
        "pairs=50000,seconds=1.5,recall-target=0.9", "pairs=inf",
        "seconds=0.25", "threads=4", "threads=2,shards=2"}) {
    seeds.emplace_back(spec);
  }
  return seeds;
}

/// One random edit of `text`.
void Mutate(std::mt19937_64& rng, std::string* text) {
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng() % (n == 0 ? 1 : n));
  };
  const size_t pos = pick(text->size() + 1);
  switch (rng() % 6) {
    case 0:  // flip one bit of one byte
      if (!text->empty()) {
        (*text)[pick(text->size())] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1: {  // insert a separator of the spec grammars
      static constexpr char kSeparators[] = ":,=|+";
      text->insert(pos, 1, kSeparators[pick(sizeof(kSeparators) - 1)]);
      break;
    }
    case 2:  // truncate
      text->resize(pos);
      break;
    case 3: {  // duplicate a slice
      const size_t begin = pick(text->size() + 1);
      const size_t length = pick(text->size() - begin + 1);
      text->insert(pick(text->size() + 1), text->substr(begin, length));
      break;
    }
    case 4: {  // insert a digit run (overflows, huge sizes)
      std::string digits(1 + pick(20), '9');
      for (char& c : digits) c = static_cast<char>('0' + rng() % 10);
      text->insert(pos, digits);
      break;
    }
    default:  // overwrite one byte with any value, NUL included
      if (!text->empty()) {
        (*text)[pick(text->size())] = static_cast<char>(rng() & 0xff);
      }
      break;
  }
}

/// Counts of built (ok) and diagnosed (error) results over the run.
struct Tally {
  int ok = 0;
  int diagnosed = 0;

  void Check(const Status& status, const std::string& target,
             const std::string& input) {
    if (status.ok()) {
      ++ok;
    } else {
      ++diagnosed;
      EXPECT_FALSE(status.message().empty())
          << target << " gave an empty diagnostic for '" << input << "'";
    }
  }

  template <typename T>
  void Check(const StatusOr<std::unique_ptr<T>>& result,
             const std::string& target, const std::string& input) {
    Check(result.status(), target, input);
    if (result.ok()) {
      EXPECT_NE(*result, nullptr) << target << " built null from '" << input
                                  << "'";
    }
  }
};

/// Routes one input through every spec parser.
void Exercise(const std::string& text, Tally* tally) {
  tally->Check(api::BlockerRegistry::Global().Create(text), "technique",
               text);
  tally->Check(pipeline::StageRegistry::Global().Create(text), "stage", text);
  tally->Check(index::IndexRegistry::Global().Create(text), "index", text);
  tally->Check(pipeline::Build(text), "pipeline", text);
  tally->Check(core::Budget::Parse(text).status(), "budget", text);
  engine::ExecutionSpec execution;
  tally->Check(engine::ExecutionSpec::Parse(text, &execution), "execution",
               text);
}

TEST(SpecFuzzTest, MutatedSpecsBuildOrDiagnoseNeverAbort) {
  std::mt19937_64 rng(kFuzzSeed);
  Tally tally;
  for (const std::string& seed : Seeds()) {
    Exercise(seed, &tally);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string mutant = seed;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) Mutate(rng, &mutant);
      Exercise(mutant, &tally);
    }
  }
  // Both outcomes must occur, or the mutations explore nothing.
  EXPECT_GT(tally.ok, 0);
  EXPECT_GT(tally.diagnosed, 0);
}

TEST(SpecFuzzTest, EveryDocumentedParamSurvivesBoundaryValues) {
  // NaN passed every "x < lo || x > hi" range check and aborted in the
  // qgram, stringmap, canopy and harra constructors.
  Tally tally;
  for (const auto& infos : {api::BlockerRegistry::Global().List(),
                            pipeline::StageRegistry::Global().List(),
                            index::IndexRegistry::Global().List()}) {
    for (const api::BlockerInfo& info : infos) {
      for (const api::ParamDoc& param : info.params) {
        for (const char* value :
             {"nan", "-nan", "inf", "-inf", "-1", "0", "1e308", "2147483648",
              "-2147483649", "18446744073709551616", "", "+"}) {
          Exercise(info.name + ":" + param.name + "=" + value, &tally);
        }
      }
    }
  }
  EXPECT_GT(tally.diagnosed, 0);
}

TEST(SpecFuzzTest, HugeLshProductsAreRangeErrors) {
  // k*l overflowed int in the index constructors before the shared
  // range check, aborting inside the minhash family.
  for (const char* spec :
       {"lsh:k=65536,l=65536", "sa-lsh:k=2147483647,l=2", "lsh:k=1,l=65537",
        "mp-lsh:k=300,l=300", "harra:k=70000,l=1", "forest:k=2,l=40000"}) {
    Tally tally;
    Exercise(spec, &tally);
    EXPECT_EQ(tally.ok, 0) << spec;
  }
}

}  // namespace
}  // namespace sablock
