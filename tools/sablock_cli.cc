// sablock_cli — run any registered blocking technique on a CSV file (or a
// generated dataset) and report blocking-quality metrics and/or the
// candidate pairs. Techniques are built from registry spec strings; use
// --list to see every registered technique and its parameters.
//
// Examples:
//   sablock_cli --list
//   sablock_cli --generate=cora --records=1879
//               --technique "sa-lsh:k=4,l=63,q=4,attrs=authors+title"
//   sablock_cli --input=voters.csv --entity-column=voter_id
//               --technique "lsh:k=9,l=15,q=2,attrs=first_name+last_name"
//               --pairs-out=pairs.csv
//   sablock_cli --generate=voter --records=30000 --technique=tblo
//               --attrs=first_name,last_name
//   sablock_cli --input=voters.csv --entity-column=voter_id
//               --save-snapshot=voters.sab
//   sablock_cli --load-snapshot=voters.sab
//               --technique "lsh:k=9,l=15,q=2,attrs=first_name+last_name"
// (each invocation is a single command line; shown wrapped for width)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/blocker_spec.h"
#include "api/pipeline_spec.h"
#include "api/registry.h"
#include "api/technique_params.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/block_sink.h"
#include "core/budget.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/voter_generator.h"
#include "engine/execution_spec.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace {

/// Every flag the usage text documents.
constexpr const char* kFlags[] = {
    "help",          "list",          "list-stages", "list-indexes",
    "input",         "entity-column", "generate",    "records",
    "load-snapshot", "technique",     "pipeline",    "attrs",
    "pairs-out",     "blocks-out",    "threads",     "budget",
    "repeat",        "save-snapshot", "snapshot-raw",
    "snapshot-no-features"};

/// Legacy per-parameter flags, folded into the technique spec as defaults
/// (ApplyLegacyFlags).
constexpr const char* kLegacyFlags[] = {
    "k",      "l",         "q",     "w",          "mode",
    "domain", "window",    "probes", "depth",     "seed",
    "nn",     "threshold", "sim",    "min-suffix", "max-block"};

bool IsKnownFlag(const std::string& name) {
  auto match = [&name](const char* known) { return name == known; };
  return std::any_of(std::begin(kFlags), std::end(kFlags), match) ||
         std::any_of(std::begin(kLegacyFlags), std::end(kLegacyFlags),
                     match);
}

struct Flags {
  std::map<std::string, std::string> values;
  /// The first flag on the command line that IsKnownFlag rejects.
  std::string unknown;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  int GetInt(const std::string& name, int fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : std::atoi(it->second.c_str());
  }
  bool Has(const std::string& name) const { return values.count(name) > 0; }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    const std::string name = eq != nullptr ? std::string(arg + 2, eq)
                                           : std::string(arg + 2);
    if (flags.unknown.empty() && !IsKnownFlag(name)) flags.unknown = name;
    if (eq != nullptr) {
      flags.values[name] = eq + 1;
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      // "--flag value" form (spec strings often carry '=' themselves).
      flags.values[name] = argv[++i];
    } else {
      flags.values[name] = "true";
    }
  }
  return flags;
}

void PrintUsage() {
  std::printf(
      "usage: sablock_cli --list | --list-stages | --list-indexes\n"
      "       sablock_cli (--input=FILE [--entity-column=COL] |\n"
      "                    --generate=cora|voter --records=N |\n"
      "                    --load-snapshot=FILE.sab)\n"
      "                   (--technique \"name:key=val,key=val,...\" |\n"
      "                    --pipeline \"blocker | stage:params | ...\")\n"
      "                   [--attrs=a,b[,c...]]  (default for attrs= param)\n"
      "                   [--pairs-out=FILE]    (write candidate pairs)\n"
      "                   [--blocks-out=FILE]   (write blocks)\n"
      "                   [--threads=N]         (workers inside the run;\n"
      "                                          never change the blocks)\n"
      "                   [--budget \"pairs=N,seconds=S\"]  (stop once the\n"
      "                                          emitted comparisons or\n"
      "                                          wall clock hit the cap)\n"
      "                   [--repeat=N]          (rerun build N times,\n"
      "                                          report min/mean time)\n"
      "                   [--save-snapshot=FILE.sab]  (write the loaded\n"
      "                                          dataset + feature cache\n"
      "                                          as a mmap-able container;\n"
      "                                          no --technique needed)\n"
      "                   [--snapshot-raw]      (disable section\n"
      "                                          compression)\n"
      "                   [--snapshot-no-features]  (dataset core only)\n"
      "\n"
      "--save-snapshot without a --technique/--pipeline converts and\n"
      "exits; with one, the snapshot is written after the runs (so the\n"
      "feature cache the run warmed is captured). --load-snapshot maps\n"
      "the container back zero-copy (see README \"Snapshots\").\n"
      "\n"
      "--threads=N splits the technique's own work (feature columns,\n"
      "band keys, radix sort) over N workers; the blocks are byte-identical\n"
      "to --threads=1.\n"
      "\n"
      "--pipeline composes any blocker with post-processing stages, e.g.\n"
      "  \"token-blocking | purge:max_size=500 | meta:weight=cbs,prune=wep\"\n"
      "and reports per-stage block/pair counts and timings.\n"
      "\n"
      "--budget takes the unified core::Budget grammar (pairs=N,\n"
      "seconds=S; \"inf\" = unlimited) and bounds what reaches the\n"
      "output: blocks stop being collected once their comparisons\n"
      "exhaust the budget (the per-stage table still reports what each\n"
      "step emitted). recall-target= budgets are pipeline-only —\n"
      "use the progressive stage (--pipeline \"... | progressive:...\").\n"
      "\n"
      "The technique spec drives the blocker registry; legacy flags\n"
      "(--k, --l, --q, --w, --mode, --domain, --window, --probes, --depth,\n"
      " --seed, --nn, --threshold, --sim, --min-suffix, --max-block) are\n"
      "folded into the spec as defaults. Any other flag is an error.\n");
}

void PrintStages() {
  std::printf("registered pipeline stages:\n\n");
  std::fputs(sablock::api::FormatEntries(
                 sablock::pipeline::StageRegistry::Global().List())
                 .c_str(),
             stdout);
  std::printf(
      "\npipeline grammar: \"blocker | stage:key=val,... | stage\", e.g.\n"
      "  \"token-blocking:attrs=authors+title | purge:max_size=500 |\n"
      "   meta:weight=cbs,prune=wep\"\n");
}

void PrintIndexes() {
  std::printf("registered incremental indexes (sablock_serve):\n\n");
  std::fputs(sablock::api::FormatEntries(
                 sablock::index::IndexRegistry::Global().List())
                 .c_str(),
             stdout);
  std::printf(
      "\nindexes share the technique spec grammar; a fully loaded index\n"
      "reproduces its batch technique's blocks (see README \"Serving\").\n");
}

void PrintRegistry() {
  std::printf("registered blocking techniques:\n\n");
  std::fputs(sablock::api::FormatEntries(
                 sablock::api::BlockerRegistry::Global().List())
                 .c_str(),
             stdout);
  std::printf(
      "\nspec grammar: name[:key=val,key=val,...]; list values join\n"
      "elements with '+', e.g. \"lsh:k=4,l=63,attrs=authors+title\"\n\n");
  PrintStages();
}

/// Folds the legacy per-parameter flags under the spec as defaults, so old
/// invocations like "--technique=lsh --k=9 --l=15" keep working.
void ApplyLegacyFlags(const Flags& flags,
                      sablock::api::BlockerSpec* spec) {
  for (const char* name : kLegacyFlags) {
    if (flags.Has(name)) spec->params.SetIfAbsent(name, flags.Get(name));
  }
}

/// Loads the dataset named by --input / --generate / --load-snapshot.
/// Returns true and fills `out`; on failure prints the error (or the
/// usage text when no source was given) and returns false.
bool LoadDatasetFromFlags(const Flags& flags, sablock::data::Dataset* out) {
  sablock::Status status;
  if (flags.Has("load-snapshot")) {
    sablock::store::SnapshotInfo info;
    sablock::WallTimer timer;
    status = sablock::store::LoadSnapshot(flags.Get("load-snapshot"), {},
                                          out, &info);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return false;
    }
    std::printf("snapshot: %llu bytes, %u section(s), %u feature "
                "section(s)%s, loaded in %.3fs\n",
                static_cast<unsigned long long>(info.file_bytes),
                info.sections, info.feature_sections,
                info.any_compressed ? ", compressed" : "",
                timer.Seconds());
    return true;
  }
  if (flags.Has("input")) {
    status = sablock::data::ReadCsv(flags.Get("input"),
                                    flags.Get("entity-column"), out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return false;
    }
    return true;
  }
  if (flags.Get("generate") == "cora") {
    sablock::data::CoraGeneratorConfig config;
    config.num_records = static_cast<size_t>(flags.GetInt("records", 1879));
    config.num_entities = std::max<size_t>(config.num_records / 10, 1);
    *out = GenerateCoraLike(config);
    return true;
  }
  if (flags.Get("generate") == "voter") {
    sablock::data::VoterGeneratorConfig config;
    config.num_records =
        static_cast<size_t>(flags.GetInt("records", 30000));
    *out = GenerateVoterLike(config);
    return true;
  }
  PrintUsage();
  return false;
}

/// Writes `dataset` (plus any feature columns its cache already holds,
/// unless --snapshot-no-features) to the --save-snapshot path.
int SaveSnapshotFromFlags(const Flags& flags,
                          const sablock::data::Dataset& dataset) {
  sablock::store::WriteOptions options;
  options.compress = !flags.Has("snapshot-raw");
  options.include_features = !flags.Has("snapshot-no-features");
  sablock::store::WriteInfo info;
  sablock::Status status = sablock::store::WriteSnapshot(
      flags.Get("save-snapshot"), dataset, options, &info);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("wrote snapshot %s: %llu bytes, %u section(s) "
              "(%u feature)\n",
              flags.Get("save-snapshot").c_str(),
              static_cast<unsigned long long>(info.file_bytes),
              info.sections, info.feature_sections);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (!flags.unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag '--%s' (see --help)\n",
                 flags.unknown.c_str());
    return 1;
  }
  if (flags.Has("help") || argc == 1) {
    PrintUsage();
    return 0;
  }
  if (flags.Has("list")) {
    PrintRegistry();
    return 0;
  }
  if (flags.Has("list-stages")) {
    PrintStages();
    return 0;
  }
  if (flags.Has("list-indexes")) {
    PrintIndexes();
    return 0;
  }

  // --- snapshot conversion (no technique: load, write .sab, exit) -------
  if (flags.Has("save-snapshot") && !flags.Has("technique") &&
      !flags.Has("pipeline")) {
    sablock::data::Dataset dataset;
    if (!LoadDatasetFromFlags(flags, &dataset)) return 1;
    std::printf("dataset: %zu records, %zu attributes\n", dataset.size(),
                dataset.schema().size());
    return SaveSnapshotFromFlags(flags, dataset);
  }

  // --- technique or pipeline (built from registry spec strings) ---------
  if (flags.Has("pipeline") && flags.Has("technique")) {
    std::fprintf(stderr,
                 "error: pass either --technique or --pipeline, not both\n");
    return 1;
  }
  const bool use_pipeline = flags.Has("pipeline");
  sablock::api::PipelineSpec pipeline_spec;
  sablock::Status status =
      use_pipeline
          ? sablock::api::PipelineSpec::Parse(flags.Get("pipeline"),
                                              &pipeline_spec)
          : sablock::api::BlockerSpec::Parse(flags.Get("technique", "lsh"),
                                             &pipeline_spec.blocker);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  // Legacy flags and --attrs layer defaults under the generator segment.
  sablock::api::BlockerSpec& blocker_spec = pipeline_spec.blocker;
  ApplyLegacyFlags(flags, &blocker_spec);

  std::vector<std::string> attrs =
      sablock::Split(flags.Get("attrs", ""), ',');
  attrs.erase(std::remove(attrs.begin(), attrs.end(), std::string()),
              attrs.end());
  if (!attrs.empty()) {
    blocker_spec.params.SetIfAbsent("attrs", sablock::Join(attrs, "+"));
  }
  // The effective blocking attributes (from --attrs, the spec itself or,
  // for sa-lsh, its domain's paper attributes), validated against the
  // schema once the dataset is loaded.
  const bool salsh =
      blocker_spec.name == "sa-lsh" || blocker_spec.name == "salsh";
  bool attrs_from_domain = false;
  {
    sablock::api::ParamMap params_peek = blocker_spec.params;
    attrs = params_peek.GetStringList("attrs", {});
    sablock::api::SaLshConfig salsh_config;
    // A spec ReadSaLsh rejects fails in pipeline::Build below, with the
    // registry's own error message.
    if (salsh && attrs.empty() &&
        sablock::api::ReadSaLsh(params_peek, &salsh_config).ok()) {
      attrs = salsh_config.lsh.attributes;
      attrs_from_domain = true;
    }
  }
  // Only sa-lsh carries its own attribute default; everything else
  // blocks on nothing without attrs, which is never what the user wants.
  if (attrs.empty() && !salsh) {
    std::fprintf(stderr,
                 "error: no blocking attributes — pass --attrs=a,b or an "
                 "attrs= spec param\n");
    return 1;
  }

  // A --technique is a zero-stage pipeline: both flags run the same path.
  std::unique_ptr<sablock::pipeline::PipelinedBlocker> pipelined;
  status = sablock::pipeline::Build(std::move(pipeline_spec), &pipelined);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    std::fprintf(stderr,
                 "hint: sablock_cli --list shows all techniques and "
                 "pipeline stages\n");
    return 1;
  }

  // --- dataset ----------------------------------------------------------
  sablock::data::Dataset dataset;
  if (!LoadDatasetFromFlags(flags, &dataset)) return 1;
  std::printf("dataset: %zu records, %zu attributes\n", dataset.size(),
              dataset.schema().size());

  for (const std::string& a : attrs) {
    if (dataset.schema().IndexOf(a) < 0) {
      std::fprintf(stderr, "error: attribute '%s' not in schema%s\n",
                   a.c_str(),
                   attrs_from_domain
                       ? " (sa-lsh domain default; pass domain= or attrs=)"
                       : "");
      return 1;
    }
  }

  // --- execution spec ---------------------------------------------------
  sablock::engine::ExecutionSpec exec;
  if (flags.Has("threads")) {
    status = sablock::engine::ExecutionSpec::Parse(
        "threads=" + flags.Get("threads"), &exec);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
  }
  // --- budget (unified core::Budget grammar, bounds collected output) ---
  sablock::core::Budget budget;
  const bool use_budget = flags.Has("budget");
  if (use_budget) {
    status = sablock::core::Budget::Parse(flags.Get("budget"), &budget);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    if (budget.recall_target > 0.0) {
      std::fprintf(stderr,
                   "error: recall-target budgets need pair-level scoring — "
                   "use the progressive pipeline stage, e.g.\n"
                   "  --pipeline \"tblo | progressive:sched=ew-cbs,"
                   "recall-target=0.9\"\n");
      return 1;
    }
  }

  const int repeat = std::max(flags.GetInt("repeat", 1), 1);

  // --- run (the last repeat's result serves metrics and outputs) ----
  // RunPipeline detaches the feature cache per run, so every repetition
  // pays the full end-to-end build; it interposes counting sinks after
  // the generator and every stage, runs the generator under `exec`, and
  // gates what reaches the collection with the budget meter. Only the
  // final repetition pays the quality-metrics pass.
  sablock::eval::PipelineResult result;
  double min_seconds = 0.0;
  double total_seconds = 0.0;
  // The last repetition's meter survives the loop for the budget report.
  std::shared_ptr<sablock::core::BudgetMeter> meter;
  for (int run = 0; run < repeat; ++run) {
    if (use_budget) {
      meter = std::make_shared<sablock::core::BudgetMeter>(budget);
    }
    result = sablock::eval::RunPipeline(pipelined->blocker(),
                                        pipelined->stages(), dataset,
                                        /*evaluate=*/run + 1 == repeat, exec,
                                        meter);
    min_seconds = run == 0 ? result.seconds
                           : std::min(min_seconds, result.seconds);
    total_seconds += result.seconds;
  }
  const sablock::core::BlockCollection& blocks = result.blocks;
  const sablock::eval::Metrics& metrics = result.metrics;
  std::printf("%s: %s\n", use_pipeline ? "pipeline" : "technique",
              pipelined->name().c_str());
  // --threads only decides whether the spec is reported: every run goes
  // through the executor.
  if (flags.Has("threads")) {
    std::printf("engine: %s\n", exec.ToString().c_str());
  }
  if (use_pipeline) {
    // Per-step counts are what each step emitted, before the budget gate.
    sablock::eval::TablePrinter table(
        {"stage", "blocks", "comparisons", "max", "seconds"});
    for (const sablock::eval::StageCounts& s : result.stages) {
      char seconds_buf[32];
      std::snprintf(seconds_buf, sizeof(seconds_buf), "%.3f", s.seconds);
      table.AddRow({s.name, std::to_string(s.blocks),
                    std::to_string(s.comparisons),
                    std::to_string(s.max_block_size), seconds_buf});
    }
    table.Print();
  }
  std::printf("blocks: %llu (max size %llu), candidate pairs: %llu, "
              "build time: %.3fs\n",
              static_cast<unsigned long long>(metrics.num_blocks),
              static_cast<unsigned long long>(metrics.max_block_size),
              static_cast<unsigned long long>(metrics.distinct_pairs),
              min_seconds);
  if (repeat > 1) {
    std::printf("build time over %d runs: min=%.3fs mean=%.3fs\n", repeat,
                min_seconds, total_seconds / repeat);
  }
  if (meter != nullptr) {
    const std::string reason = meter->ExhaustedReason();
    std::printf("budget: %s — comparisons spent: %llu (%s)\n",
                budget.ToString().c_str(),
                static_cast<unsigned long long>(meter->Spent()),
                reason.empty() ? "not exhausted"
                               : ("exhausted: " + reason).c_str());
  }
  if (metrics.ground_truth_pairs > 0) {
    std::printf("quality: %s\n", sablock::eval::Summary(metrics).c_str());
  } else {
    std::printf("quality: (no ground truth labels — metrics skipped)\n");
  }

  // --- optional outputs ---------------------------------------------------
  if (flags.Has("pairs-out") || flags.Has("blocks-out")) {
    if (flags.Has("pairs-out")) {
      std::ofstream out(flags.Get("pairs-out"));
      if (!out.is_open()) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     flags.Get("pairs-out").c_str());
        return 1;
      }
      out << "record_a,record_b\n";
      blocks.DistinctPairs().ForEach([&out](uint32_t a, uint32_t b) {
        out << a << ',' << b << '\n';
      });
      std::printf("wrote candidate pairs to %s\n",
                  flags.Get("pairs-out").c_str());
    }
    if (flags.Has("blocks-out")) {
      std::ofstream out(flags.Get("blocks-out"));
      if (!out.is_open()) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     flags.Get("blocks-out").c_str());
        return 1;
      }
      out << "block_id,record_id\n";
      for (size_t bi = 0; bi < blocks.blocks().size(); ++bi) {
        for (sablock::data::RecordId id : blocks.blocks()[bi]) {
          out << bi << ',' << id << '\n';
        }
      }
      std::printf("wrote blocks to %s\n", flags.Get("blocks-out").c_str());
    }
  }
  if (flags.Has("save-snapshot")) {
    // RunPipeline's cold copies are gone with their caches: one untimed
    // generator run warms the loaded dataset's own cache, so the
    // snapshot carries the feature columns a later load of the same spec
    // needs.
    sablock::core::PairCountingSink warmed;
    pipelined->blocker().Run(dataset, warmed);
    return SaveSnapshotFromFlags(flags, dataset);
  }
  return 0;
}
