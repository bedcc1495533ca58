// sablock_perf — the measuring half of the sablock benchmark (run.py is
// the driver that builds it, generates inputs and formats the result).
//
//   sablock_perf gen --workload W --seed S --data DIR
//       writes the workload's inputs (CSV / .sab) into DIR
//   sablock_perf run --workload W --seed S --seconds N --trace 0|1
//                    --data DIR [--trace-out FILE]
//       measures the workload on those files and prints one JSON line
//
// The program is driven only through public library calls, each timed
// from outside. Untraced runs give the end-to-end metrics; a traced run
// gives the per-layer metrics from spans the benchmark records around
// those calls (see perfbench/README.md for every name).

#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch.h"
#include "core/blocking.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/semhash.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/record.h"
#include "data/voter_generator.h"
#include "engine/sharded_executor.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "features/feature_store.h"
#include "harness.h"
#include "pipeline/pipeline.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace {

using namespace sablock;
namespace pb = perfbench;

// ------------------------------------------------------------- workloads

constexpr char kVoter[] = "voter-fig13";
constexpr char kCora[] = "cora-table3";
constexpr char kServe[] = "cora-serve";

constexpr size_t kVoterRecords = 292892;  // Fig. 13
constexpr size_t kCoraRecords = 1879;     // Table 3
constexpr size_t kCoraEntities = kCoraRecords / 10;  // as the Table 3 bench
constexpr size_t kServeRecords = 20000;   // preloaded from the snapshot
constexpr size_t kServeHeldOut = 6000;    // inserted while serving
constexpr char kEntityColumn[] = "entity_id";

constexpr char kServeIndex[] = "sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib";
constexpr int kServeInstances = 4;    // generated instances per run
constexpr double kServeRate = 500.0;  // nominal ops/s of the untraced run
constexpr double kLatencyLimitUs = 5000;  // query p99 limit for sustained_qps
constexpr double kQueryShare = 0.9;
const std::vector<double> kRateLadder = {500, 1000, 2000, 4000, 8000};

struct Build {
  std::string label;  // lsh | salsh | meta | progressive
  std::string spec;
};

std::vector<Build> BatchBuilds(const std::string& workload) {
  if (workload == kVoter) {
    return {{"lsh", "lsh:k=9,l=15,q=2,attrs=first_name+last_name"},
            {"salsh",
             "sa-lsh:k=9,l=15,q=2,w=12,mode=or,domain=voter,"
             "attrs=first_name+last_name"}};
  }
  const std::string salsh =
      "sa-lsh:k=4,l=63,q=4,w=5,mode=or,domain=bib,attrs=authors+title";
  return {{"lsh", "lsh:k=4,l=63,q=4,attrs=authors+title"},
          {"salsh", salsh},
          {"meta",
           "token-blocking:attrs=authors+title | purge:max_size=500 | "
           "meta:weight=cbs,prune=wep"},
          {"progressive", salsh + " | progressive:sched=ew-cbs,pairs=50000"}};
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> values;  // one per repetition of the measurement
  size_t samples = 1;          // samples behind a single value

  double value() const { return pb::Median(values); }
  size_t count() const { return values.size() > 1 ? values.size() : samples; }
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run reports; printed as a table and then as a single
/// JSON line at the end. A metric added again (a repeated measurement)
/// gains a sample and is reported as the median of its samples.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> values;  // pinned values
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.values.push_back(value);
        return;
      }
    }
    metrics.push_back({name, unit, {value}, samples});
  }
  void Value(const std::string& name, const std::string& value) {
    for (auto& [key, v] : values) {
      if (key == name) {
        v = value;
        return;
      }
    }
    values.emplace_back(name, value);
  }
  void Value(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    Value(name, std::string(buf));
  }
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    std::printf("  check %-34s %s %s\n", name.c_str(), ok ? "ok  " : "FAIL",
                detail.c_str());
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string EnvJson(int nproc) {
  std::ostringstream os;
  os << "{\"nproc\":" << nproc << ",\"isa\":\""
     << arch::IsaName(arch::ActiveIsa()) << "\",\"build_type\":\""
     << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\"}";
  return os.str();
}

void PrintReport(const Report& r, int nproc) {
  std::printf("metrics:\n");
  for (const Metric& m : r.metrics) {
    std::printf("  %-40s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value(),
                m.unit.c_str(), m.count());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"env\":" << EnvJson(nproc) << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << "\"" << m.name << "\":{\"value\":" << m.value()
       << ",\"unit\":\"" << m.unit << "\",\"samples\":" << m.count() << "}";
  }
  os << "},\"values\":{";
  for (size_t i = 0; i < r.values.size(); ++i) {
    os << (i ? "," : "") << "\"" << r.values[i].first << "\":\""
       << JsonEscape(r.values[i].second) << "\"";
  }
  os << "},\"checks\":[";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    os << (i ? "," : "") << "{\"name\":\"" << c.name
       << "\",\"ok\":" << (c.ok ? "true" : "false") << ",\"detail\":\""
       << JsonEscape(c.detail) << "\"}";
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- helpers

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts the VmHWM high-water mark, so a later PeakRssMb() covers only
/// what ran since (Linux clear_refs; without it the mark stays monotonic).
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

/// Uniform double in [0, 1) from a seeded counter.
double Uniform(uint64_t seed, uint64_t i) {
  return static_cast<double>(pb::Mix(seed ^ pb::Mix(i)) >> 11) * 0x1.0p-53;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "sablock_perf: %s\n", message.c_str());
  std::exit(2);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.message());
}

pb::Fingerprint PairFingerprint(const core::BlockCollection& blocks) {
  return pb::PairSetFingerprint(blocks.DistinctPairs());
}

struct Args {
  std::string mode;
  std::string workload;
  std::string data_dir;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
};

// ------------------------------------------------------------------ inputs

std::string InputPath(const Args& a, const std::string& file) {
  return a.data_dir + "/" + file;
}

/// Input files of one generated cora-serve instance.
std::string SnapshotFile(int instance) {
  return "serve-" + std::to_string(instance) + ".sab";
}
std::string HeldOutFile(int instance) {
  return "heldout-" + std::to_string(instance) + ".csv";
}

/// One cora-serve instance: a snapshot of the records the service preloads
/// and a CSV of the records inserted while it serves.
void GenerateServeInstance(const Args& a, int j) {
  data::CoraGeneratorConfig config;
  config.num_records = kServeRecords + kServeHeldOut;
  config.num_entities = config.num_records / 10;
  config.seed = 42 + a.seed * kServeInstances + j;
  data::Dataset all = data::GenerateCoraLike(config);
  Require(store::WriteSnapshot(InputPath(a, SnapshotFile(j)),
                               all.Prefix(kServeRecords)),
          "write " + SnapshotFile(j));
  Require(data::WriteCsv(InputPath(a, HeldOutFile(j)),
                         all.Slice(kServeRecords, all.size()), kEntityColumn),
          "write " + HeldOutFile(j));
}

void Generate(const Args& a) {
  if (a.workload == kVoter) {
    data::VoterGeneratorConfig config;
    config.num_records = kVoterRecords;
    config.seed = 97 + a.seed;
    Require(data::WriteCsv(InputPath(a, "voter.csv"),
                           data::GenerateVoterLike(config), kEntityColumn),
            "write voter.csv");
  } else if (a.workload == kCora) {
    data::CoraGeneratorConfig config;
    config.num_records = kCoraRecords;
    config.num_entities = kCoraEntities;
    config.seed = 42 + a.seed;
    Require(data::WriteCsv(InputPath(a, "cora.csv"),
                           data::GenerateCoraLike(config), kEntityColumn),
            "write cora.csv");
    GenerateServeInstance(a, 0);  // for the serving layers of a traced run
  } else if (a.workload == kServe) {
    for (int j = 0; j < kServeInstances; ++j) GenerateServeInstance(a, j);
  } else {
    Die("unknown workload " + a.workload);
  }
}

// ------------------------------------------------------------------- batch

std::unique_ptr<pipeline::PipelinedBlocker> MakeBuild(const Build& b) {
  auto built = pipeline::Build(b.spec);
  if (!built.ok()) Die("bad spec " + b.spec + ": " + built.status().message());
  return std::move(built).value();
}

/// One cold build: a fresh feature cache, the engine at the workload's
/// thread count into a collecting sink. Returns seconds.
double ColdBuild(const pipeline::PipelinedBlocker& built,
                 const engine::ShardedExecutor& executor,
                 const data::Dataset& dataset, core::BlockCollection* out) {
  data::Dataset cold = dataset.ColdCopy();
  const double t0 = Now();
  if (built.stages().empty()) {
    executor.Execute(built.blocker(), cold, *out);
  } else {
    executor.ExecutePipeline(built.blocker(), built.stages(), cold, *out);
  }
  return Now() - t0;
}

/// The same build through the technique's plain Run.
double SerialBuild(const pipeline::PipelinedBlocker& built,
                   const data::Dataset& dataset, core::BlockCollection* out) {
  data::Dataset cold = dataset.ColdCopy();
  const double t0 = Now();
  built.Run(cold, *out);
  return Now() - t0;
}

struct BuildOutcome {
  std::vector<double> seconds;
  pb::Fingerprint blocks_fp;
  bool stable = true;  // every repeat gave the same block multiset
  core::BlockCollection last;
};

/// Set-up of a batch workload: parse the CSV, several times; the median
/// is setup_s. Returns the last parsed dataset.
data::Dataset BatchSetup(const Args& a, const std::string& csv, int repeats,
                         pb::Tracer& tracer, std::vector<double>* seconds) {
  data::Dataset dataset;
  for (int i = 0; i < repeats; ++i) {
    data::Dataset parsed;
    pb::Span span(tracer, "data.read_csv");
    const double t0 = Now();
    Require(data::ReadCsv(InputPath(a, csv), kEntityColumn, &parsed),
            "read " + csv);
    seconds->push_back(Now() - t0);
    dataset = std::move(parsed);
  }
  return dataset;
}

/// Checks one build's output: repeat stability, engine == plain Run,
/// and records the pinned values (fingerprints, counts, PC/PQ/RR).
void CheckBuild(const std::string& label, const data::Dataset& dataset,
                const pipeline::PipelinedBlocker& built,
                const BuildOutcome& outcome, Report* report) {
  report->Expect(label + ".repeatable", outcome.stable,
                 "block multiset " + outcome.blocks_fp.Hex());
  {
    core::BlockCollection serial;
    SerialBuild(built, dataset, &serial);
    const pb::Fingerprint fp = pb::BlocksFingerprint(serial.blocks());
    report->Expect(label + ".engine_equals_run", fp == outcome.blocks_fp,
                   "engine " + outcome.blocks_fp.Hex() + " run " + fp.Hex());
  }
  const eval::Metrics m = eval::Evaluate(dataset, outcome.last);
  const pb::Fingerprint pairs = PairFingerprint(outcome.last);
  report->Value(label + ".blocks", std::to_string(m.num_blocks));
  report->Value(label + ".blocks_fp", outcome.blocks_fp.Hex());
  report->Value(label + ".pairs", std::to_string(m.distinct_pairs));
  report->Value(label + ".pairs_fp", pairs.Hex());
  report->Value(label + ".pc", m.pc);
  report->Value(label + ".pq", m.pq);
  report->Value(label + ".rr", m.rr);
  std::printf("  %-12s blocks=%llu pairs=%llu PC=%.4f PQ=%.4f RR=%.4f\n",
              label.c_str(), static_cast<unsigned long long>(m.num_blocks),
              static_cast<unsigned long long>(m.distinct_pairs), m.pc, m.pq,
              m.rr);
}

engine::ExecutionSpec EngineSpec(int nproc) {
  engine::ExecutionSpec spec;
  spec.threads = std::min(4, nproc);
  spec.shards = 1;
  return spec;
}

void RunBatchUntraced(const Args& a, int nproc, Report* report) {
  const bool voter = a.workload == kVoter;
  const std::string csv = voter ? "voter.csv" : "cora.csv";
  pb::Tracer off;
  std::vector<double> setup;
  data::Dataset dataset = BatchSetup(a, csv, voter ? 5 : 101, off, &setup);
  std::printf("%s: %zu records, %.2f MB CSV\n", a.workload.c_str(),
              dataset.size(), FileMb(InputPath(a, csv)));
  report->Value("input.records", std::to_string(dataset.size()));
  report->Value("input.bytes",
                std::to_string(static_cast<long long>(
                    FileMb(InputPath(a, csv)) * 1024 * 1024 + 0.5)));

  const std::vector<Build> builds = BatchBuilds(a.workload);
  std::vector<std::unique_ptr<pipeline::PipelinedBlocker>> techniques;
  for (const Build& b : builds) techniques.push_back(MakeBuild(b));
  const engine::ShardedExecutor executor(EngineSpec(nproc));

  // A job starts while it is expected to end within the run's time. At
  // least three cora-table3 jobs run, so that median is never one sample;
  // one voter-fig13 job (about 20 s) may be all a run has time for.
  std::vector<BuildOutcome> outcomes(builds.size());
  std::vector<double> job_seconds;
  const size_t min_jobs = voter ? 1 : 3;
  const double deadline = Now() + a.seconds;
  while (job_seconds.size() < min_jobs ||
         Now() + pb::Median(job_seconds) <= deadline) {
    double job = 0.0;
    for (size_t i = 0; i < builds.size(); ++i) {
      BuildOutcome& o = outcomes[i];
      o.last = core::BlockCollection();
      core::BlockCollection out;
      const double s = ColdBuild(*techniques[i], executor, dataset, &out);
      ++report->attempted;
      o.seconds.push_back(s);
      job += s;
      const pb::Fingerprint fp = pb::BlocksFingerprint(out.blocks());
      if (o.seconds.size() == 1) o.blocks_fp = fp;
      o.stable = o.stable && fp == o.blocks_fp;
      o.last = std::move(out);
    }
    job_seconds.push_back(job);
  }
  const double rss = PeakRssMb();

  report->Add("setup_s", pb::Median(setup), "s", setup.size());
  for (size_t i = 0; i < builds.size(); ++i) {
    report->Add(builds[i].label + "_build_s", pb::Median(outcomes[i].seconds),
                "s", outcomes[i].seconds.size());
  }
  report->Add("latency_p50_ms", pb::Median(job_seconds) * 1e3, "ms",
              job_seconds.size());
  report->Add("peak_rss_mb", rss, "MB");

  std::printf("checks:\n");
  for (size_t i = 0; i < builds.size(); ++i) {
    CheckBuild(builds[i].label, dataset, *techniques[i], outcomes[i], report);
  }
}

// The band-key loop's result, stored so the loop cannot be optimized away.
volatile uint64_t g_band_key_sink = 0;

// Per-layer sweep of one LSH-family spec on a cold copy of `dataset`.
void LshLayers(const data::Dataset& dataset, const Build& lsh_build,
               const Build& salsh_build, bool voter, pb::Tracer& tracer,
               Report* report) {
  auto lsh_tech = MakeBuild(lsh_build);
  auto salsh_tech = MakeBuild(salsh_build);
  const auto* lsh =
      dynamic_cast<const core::LshBlocker*>(&lsh_tech->blocker());
  const auto* salsh = dynamic_cast<const core::SemanticAwareLshBlocker*>(
      &salsh_tech->blocker());
  if (lsh == nullptr || salsh == nullptr) Die("unexpected technique types");
  const core::LshParams& p = lsh->params();
  const int num_hashes = p.k * p.l;

  data::Dataset cold = dataset.ColdCopy();
  const features::FeatureStore& store = cold.features().store();
  double texts_s = 0, shingles_s = 0, signatures_s = 0;
  {
    pb::Span span(tracer, "features.texts");
    const double t0 = Now();
    store.Texts(p.attributes);
    texts_s = Now() - t0;
  }
  size_t shingles = 0;
  {
    pb::Span span(tracer, "features.shingles");
    const double t0 = Now();
    const features::ShingleColumn& col = store.Shingles(p.attributes, p.q);
    shingles_s = Now() - t0;
    for (const auto& set : col.sets) shingles += set.size();
  }
  const features::SignatureColumn* sigs = nullptr;
  {
    pb::Span span(tracer, "features.signatures");
    const double t0 = Now();
    sigs = &store.Signatures(p.attributes, p.q, num_hashes, p.seed);
    signatures_s = Now() - t0;
  }
  double tokens_s = 0;
  {
    data::Dataset token_cold = dataset.ColdCopy();
    pb::Span span(tracer, "features.tokens");
    const double t0 = Now();
    token_cold.features().store().Tokens(p.attributes);
    tokens_s = Now() - t0;
  }
  report->Add("features.texts_s", texts_s, "s");
  report->Add("features.shingles_s", shingles_s, "s");
  report->Add("features.signatures_s", signatures_s, "s");
  report->Add("features.tokens_s", tokens_s, "s");
  report->Add("features.shingles", static_cast<double>(shingles), "count");
  report->Add("features.signature_ns_per_shingle_hash",
              shingles == 0 ? 0.0
                            : signatures_s * 1e9 /
                                  (static_cast<double>(shingles) * num_hashes),
              "ns");

  // Band keys through the public LshBandKey, over every record x table.
  uint64_t band_keys = 0, sink = 0;
  double band_keys_s = 0;
  {
    pb::Span span(tracer, "core.band_keys");
    const double t0 = Now();
    for (int t = 0; t < p.l; ++t) {
      for (size_t id = 0; id < cold.size(); ++id) {
        std::span<const uint64_t> row = sigs->Row(id);
        if (core::IsEmptyMinhashSignature(row)) continue;
        sink ^= core::LshBandKey(row, t, p.k);
        ++band_keys;
      }
    }
    band_keys_s = Now() - t0;
  }
  report->Add("core.band_keys", static_cast<double>(band_keys), "count");
  report->Add("core.band_keys_s", band_keys_s, "s");

  auto family = [&](const std::string& prefix,
                    const core::BlockingTechnique& tech, double overhead_s) {
    core::BlockCollection blocks;
    double warm_s = 0;
    {
      pb::Span span(tracer, "core." + prefix + "_run_warm");
      const double t0 = Now();
      tech.Run(cold, blocks);
      warm_s = Now() - t0;
    }
    eval::Metrics m;
    {
      pb::Span span(tracer, "eval.evaluate");
      m = eval::Evaluate(dataset, blocks);
    }
    report->Add("core." + prefix + "_group_emit_s", warm_s - overhead_s, "s");
    report->Add("core." + prefix + "_blocks",
                static_cast<double>(m.num_blocks), "count");
    report->Add("core." + prefix + "_comparisons",
                static_cast<double>(m.total_comparisons), "count");
    report->Add("core." + prefix + "_distinct_pairs",
                static_cast<double>(m.distinct_pairs), "count");
    report->Add("core." + prefix + "_distinct_ratio",
                m.total_comparisons == 0
                    ? 0.0
                    : static_cast<double>(m.distinct_pairs) /
                          static_cast<double>(m.total_comparisons),
                "ratio");
  };
  family("lsh", *lsh, band_keys_s);

  // Semantic layer of SA-LSH.
  const core::Domain domain =
      voter ? core::MakeVoterDomain() : core::MakeBibliographicDomain();
  const core::Taxonomy& taxonomy = domain.taxonomy();
  std::vector<std::vector<core::ConceptId>> zetas;
  double interpret_s = 0, encode_s = 0;
  {
    pb::Span span(tracer, "core.semantic_interpret");
    const double t0 = Now();
    zetas = domain.semantics->InterpretAll(cold);
    interpret_s = Now() - t0;
  }
  std::vector<core::SemSignature> sem;
  uint32_t dim = 0;
  {
    pb::Span span(tracer, "core.semhash_encode");
    const double t0 = Now();
    core::SemhashEncoder encoder = core::SemhashEncoder::Build(taxonomy, zetas);
    sem = encoder.EncodeAll(taxonomy, zetas);
    dim = encoder.dimension();
    encode_s = Now() - t0;
  }
  report->Add("core.semantic_interpret_s", interpret_s, "s");
  report->Add("core.semhash_encode_s", encode_s, "s");
  report->Add("core.semhash_dim", dim, "count");

  uint64_t bucket_keys = 0;
  {
    pb::Span span(tracer, "core.salsh_bucket_keys");
    std::vector<uint64_t> keys;
    for (int t = 0; t < p.l && dim > 0; ++t) {
      const std::vector<size_t> chosen =
          core::SemanticTableChoices(salsh->semantic_params(), dim, t);
      for (size_t id = 0; id < cold.size(); ++id) {
        std::span<const uint64_t> row = sigs->Row(id);
        if (core::IsEmptyMinhashSignature(row)) continue;
        keys.clear();
        core::AppendSemanticBucketKeys(core::LshBandKey(row, t, p.k), sem[id],
                                       salsh->semantic_params().mode, chosen,
                                       &keys);
        bucket_keys += keys.size();
      }
    }
  }
  report->Add("core.salsh_bucket_keys", static_cast<double>(bucket_keys),
              "count");
  family("salsh", *salsh, band_keys_s + interpret_s + encode_s);
  g_band_key_sink = sink;
}

/// Stage counts of one pipeline through eval::RunPipeline.
eval::PipelineResult PipelineCounts(const data::Dataset& dataset,
                                    const Build& b, pb::Tracer& tracer) {
  auto built = MakeBuild(b);
  pb::Span span(tracer, "eval.run_pipeline." + b.label);
  return eval::RunPipeline(built->blocker(), built->stages(), dataset,
                           /*evaluate=*/false);
}

void RunBatchTraced(const Args& a, int nproc, pb::Tracer& tracer,
                    Report* report) {
  const bool voter = a.workload == kVoter;
  const std::string csv = voter ? "voter.csv" : "cora.csv";
  std::vector<double> setup;
  data::Dataset dataset;
  {
    pb::Span span(tracer, "bench.setup");
    dataset = BatchSetup(a, csv, voter ? 3 : 15, tracer, &setup);
  }
  const double mb = FileMb(InputPath(a, csv));
  report->Add("data.read_csv_s", pb::Median(setup), "s", setup.size());
  report->Add("data.read_csv_mb_per_s", mb / pb::Median(setup), "MB/s",
              setup.size());

  const std::vector<Build> builds = BatchBuilds(a.workload);
  // Cora's layers take milliseconds: repeat the sweep, report medians.
  for (int rep = 0; rep < (voter ? 1 : 7); ++rep) {
    const double eval_before = tracer.TotalSeconds("eval.evaluate");
    pb::Span sweep(tracer, "bench.layer_sweep");
    {
      pb::Span span(tracer, "bench.lsh_layers");
      LshLayers(dataset, builds[0], builds[1], voter, tracer, report);
    }

    // Engine: the LSH-family job cold through the engine, then through plain
    // Run; and once more through the engine with tracing off, for the
    // tracing overhead.
    const engine::ShardedExecutor executor(EngineSpec(nproc));
    double execute_s = 0, serial_s = 0, untraced_s = 0;
    for (size_t i = 0; i < 2; ++i) {
      auto built = MakeBuild(builds[i]);
      core::BlockCollection engine_out, serial_out;
      {
        pb::Span span(tracer, "engine.execute");
        execute_s += ColdBuild(*built, executor, dataset, &engine_out);
      }
      ++report->attempted;
      const pb::Fingerprint engine_fp =
          pb::BlocksFingerprint(engine_out.blocks());
      engine_out = core::BlockCollection();
      {
        pb::Span span(tracer, "engine.serial");
        serial_s += SerialBuild(*built, dataset, &serial_out);
      }
      const pb::Fingerprint serial_fp =
          pb::BlocksFingerprint(serial_out.blocks());
      report->Expect(builds[i].label + ".engine_equals_run",
                     engine_fp == serial_fp,
                     "engine " + engine_fp.Hex() + " run " + serial_fp.Hex());
      report->Value(builds[i].label + ".blocks_fp", engine_fp.Hex());
      serial_out = core::BlockCollection();
      core::BlockCollection untraced_out;
      untraced_s += ColdBuild(*built, executor, dataset, &untraced_out);
    }
    report->Add("engine.execute_s", execute_s, "s");
    report->Add("engine.serial_s", serial_s, "s");
    report->Add("engine.speedup", serial_s / execute_s, "x");
    report->Add("bench.trace_overhead_pct",
                (execute_s - untraced_s) / untraced_s * 100.0, "%");

    // Pipelines (cora-table3 only): the Fig. 12 meta-blocking chain and
    // SA-LSH -> progressive, with eval::RunPipeline's per-stage counts.
    if (!voter) {
      const eval::PipelineResult meta =
          PipelineCounts(dataset, builds[2], tracer);
      const double in = static_cast<double>(meta.stages[1].comparisons);
      const double out = static_cast<double>(meta.stages[2].comparisons);
      report->Add("pipeline.token_blocking_s", meta.stages[0].seconds, "s");
      report->Add("pipeline.purge_s", meta.stages[1].seconds, "s");
      report->Add("pipeline.meta_s", meta.stages[2].seconds, "s");
      report->Add("pipeline.meta_comparisons_in", in, "count");
      report->Add("pipeline.meta_comparisons_out", out, "count");
      report->Add("pipeline.meta_keep_ratio", in == 0 ? 0 : out / in, "ratio");
      const eval::PipelineResult prog =
          PipelineCounts(dataset, builds[3], tracer);
      report->Add("progressive.generator_s", prog.stages[0].seconds, "s");
      report->Add("progressive.schedule_s", prog.stages[1].seconds, "s");
      report->Add("progressive.pairs_in",
                  static_cast<double>(prog.stages[0].comparisons), "count");
      report->Add("progressive.pairs_out",
                  static_cast<double>(prog.stages[1].comparisons), "count");
      report->attempted += 2;
    }
    report->Add("eval.evaluate_s",
                tracer.TotalSeconds("eval.evaluate") - eval_before, "s");
  }
}

// ------------------------------------------------------------------- serve

struct ServeInputs {
  data::Dataset heldout;
  std::vector<std::span<const std::string_view>> everything;  // probe pool
};

/// Set-up of the serving workload: load the snapshot, build the service,
/// preload the index. Timed as a whole (setup_s) and by part.
struct ServeSetup {
  std::unique_ptr<service::CandidateService> service;
  data::Dataset snapshot;
  double load_s = 0, make_s = 0, preload_s = 0;
};

ServeSetup LoadService(const Args& a, int instance, pb::Tracer& tracer) {
  ServeSetup s;
  {
    pb::Span span(tracer, "store.load_snapshot");
    const double t0 = Now();
    Require(store::LoadSnapshot(InputPath(a, SnapshotFile(instance)), {},
                                &s.snapshot),
            "load " + SnapshotFile(instance));
    s.load_s = Now() - t0;
  }
  {
    pb::Span span(tracer, "service.make");
    const double t0 = Now();
    Require(service::CandidateService::Make(s.snapshot.schema(), kServeIndex,
                                            &s.service),
            "make service");
    s.make_s = Now() - t0;
  }
  {
    pb::Span span(tracer, "service.preload");
    const double t0 = Now();
    s.service->Preload(s.snapshot);
    s.preload_s = Now() - t0;
  }
  return s;
}

/// One scheduled request of the serving mix.
struct Request {
  bool insert = false;
  size_t record = 0;  // probe index into the pool, or held-out row
};

/// The seeded open-loop schedule: Poisson arrivals at `rate`, 90% queries
/// on probes drawn from every generated record, 10% inserts of held-out
/// records in order (starting at `*next_insert`, wrapping around).
void MakeSchedule(uint64_t seed, double rate, size_t n, size_t pool,
                  size_t heldout, size_t* next_insert,
                  std::vector<Request>* requests, std::vector<double>* due) {
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - Uniform(seed, 3 * i)) / rate;
    Request r;
    r.insert = Uniform(seed, 3 * i + 1) >= kQueryShare;
    if (r.insert) {
      r.record = (*next_insert)++ % heldout;
    } else {
      r.record = static_cast<size_t>(Uniform(seed, 3 * i + 2) *
                                     static_cast<double>(pool));
    }
    requests->push_back(r);
    due->push_back(t);
  }
}

struct RateOutcome {
  std::vector<double> query_latency;   // seconds, from due time
  std::vector<double> insert_latency;
  std::vector<double> lateness;        // generator's own
  pb::BacklogTrend backlog;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The generator's clock. It sleeps to just before a due time and spins
/// the rest of the way, with the thread's timer slack at its minimum, so
/// that its own wake-up delay stays small next to the latency it measures.
struct SteadyClock {
  SteadyClock() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }
  double Now() const { return ::Now(); }
  void SleepUntil(double t) const {
    const double lead = 200e-6;
    const double now = ::Now();
    if (t - now > lead) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(t - now - lead));
    }
    while (::Now() < t) {
    }
  }
};

/// Drives one rate of the open-loop mix through the socket: queries on one
/// connection from this thread, inserts on another from a second thread.
RateOutcome DriveRate(const std::string& socket, const ServeInputs& in,
                      uint64_t seed, double rate, size_t n,
                      size_t* next_insert) {
  std::vector<Request> requests;
  std::vector<double> due;
  MakeSchedule(seed, rate, n, in.everything.size(), in.heldout.size(),
               next_insert, &requests, &due);
  std::vector<pb::Op> query_ops, insert_ops;
  std::vector<size_t> query_rec, insert_rec;
  for (size_t i = 0; i < requests.size(); ++i) {
    pb::Op op;
    op.due = due[i];
    (requests[i].insert ? insert_ops : query_ops).push_back(op);
    (requests[i].insert ? insert_rec : query_rec).push_back(requests[i].record);
  }

  service::CandidateClient query_client, insert_client;
  const bool connected =
      service::CandidateClient::Connect(socket, &query_client).ok() &&
      service::CandidateClient::Connect(socket, &insert_client).ok();
  std::vector<data::RecordId> candidates;
  auto query = [&](size_t i) {
    return connected &&
           query_client.Query(in.everything[query_rec[i]], &candidates).ok();
  };
  auto insert = [&](size_t i) {
    data::RecordId id;
    return connected &&
           insert_client.Insert(in.heldout.Values(insert_rec[i]), &id).ok();
  };

  const double start = Now() + 0.01;
  for (pb::Op& op : query_ops) op.due += start;
  for (pb::Op& op : insert_ops) op.due += start;
  {
    std::jthread inserter([&] {
      SteadyClock clock;
      pb::RunOpenLoop(insert_ops, clock, insert);
    });
    SteadyClock clock;
    pb::RunOpenLoop(query_ops, clock, query);
  }  // joins the inserter before its ops are read

  RateOutcome out;
  std::vector<pb::Op> all;
  for (const pb::Op& op : query_ops) out.query_latency.push_back(op.Latency());
  for (const pb::Op& op : insert_ops) {
    out.insert_latency.push_back(op.Latency());
  }
  for (const auto* ops : {&query_ops, &insert_ops}) {
    for (double late : pb::GeneratorLateness(*ops)) {
      out.lateness.push_back(late);
    }
    for (const pb::Op& op : *ops) {
      ++out.attempted;
      out.failed += !op.ok;
      all.push_back(op);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const pb::Op& x, const pb::Op& y) { return x.due < y.due; });
  out.backlog = pb::MeasureBacklog(all);
  return out;
}

ServeInputs LoadServeInputs(const Args& a, int instance,
                            const data::Dataset& snapshot) {
  ServeInputs in;
  Require(data::ReadCsv(InputPath(a, HeldOutFile(instance)), kEntityColumn,
                        &in.heldout),
          "read " + HeldOutFile(instance));
  for (size_t id = 0; id < snapshot.size(); ++id) {
    in.everything.push_back(snapshot.Values(id));
  }
  for (size_t id = 0; id < in.heldout.size(); ++id) {
    in.everything.push_back(in.heldout.Values(id));
  }
  return in;
}

std::string SocketPath(const Args& a) {
  return a.data_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

/// Percentile in microseconds, or the median when too few samples lie
/// beyond p (then reported with samples=0 for the tail).
void AddLatency(Report* report, const std::string& name,
                const std::vector<double>& seconds) {
  report->Add(name + "_p50_us", pb::Median(seconds) * 1e6, "us",
              seconds.size());
  const std::optional<double> p99 = pb::Percentile(seconds, 0.99);
  if (p99) {
    report->Add(name + "_p99_us", *p99 * 1e6, "us", seconds.size());
  } else {
    std::printf("  %-40s (fewer than ten samples beyond p99)\n",
                (name + "_p99_us").c_str());
  }
}

/// The final index state must not depend on how the load was timed: a
/// fresh service given the same inserts in-process, one by one, emits the
/// same block multiset as the served one.
void CheckServeState(const Args& a, int instance, const ServeInputs& in,
                     const service::CandidateService& served,
                     size_t inserted, Report* report) {
  core::BlockCollection served_blocks;
  served.EmitBlocks(served_blocks);
  const pb::Fingerprint served_fp =
      pb::BlocksFingerprint(served_blocks.blocks());

  pb::Tracer off;
  ServeSetup replay = LoadService(a, instance, off);
  data::Dataset truth = replay.snapshot;
  for (size_t i = 0; i < inserted; ++i) {
    const size_t row = i % in.heldout.size();
    replay.service->Insert(in.heldout.Values(row));
    truth.AddRow(in.heldout.Values(row), in.heldout.entity(row));
  }
  core::BlockCollection replay_blocks;
  replay.service->EmitBlocks(replay_blocks);
  const pb::Fingerprint replay_fp =
      pb::BlocksFingerprint(replay_blocks.blocks());
  const std::string label = "serve" + std::to_string(instance);
  report->Expect(label + ".final_state_repeatable", served_fp == replay_fp,
                 "served " + served_fp.Hex() + " replayed " + replay_fp.Hex());
  const eval::Metrics m = eval::Evaluate(truth, served_blocks);
  report->Value(label + ".inserted", std::to_string(inserted));
  report->Value(label + ".blocks", std::to_string(m.num_blocks));
  report->Value(label + ".blocks_fp", served_fp.Hex());
  report->Value(label + ".pairs", std::to_string(m.distinct_pairs));
  report->Value(label + ".pairs_fp", PairFingerprint(served_blocks).Hex());
  report->Value(label + ".pc", m.pc);
  report->Value(label + ".pq", m.pq);
  report->Value(label + ".rr", m.rr);
  std::printf("  %s final index: inserted=%zu blocks=%llu pairs=%llu "
              "PC=%.4f PQ=%.4f RR=%.4f\n",
              label.c_str(), inserted,
              static_cast<unsigned long long>(m.num_blocks),
              static_cast<unsigned long long>(m.distinct_pairs), m.pc, m.pq,
              m.rr);
}

/// Socket candidates must equal in-process Query results on a sequential
/// probe set (before any insert, so both see the same index).
void CheckSocketParity(const std::string& socket, const ServeInputs& in,
                       const service::CandidateService& service, uint64_t seed,
                       Report* report) {
  service::CandidateClient client;
  size_t mismatches = 0, probes = 50;
  if (!service::CandidateClient::Connect(socket, &client).ok()) {
    mismatches = probes;
  } else {
    for (size_t i = 0; i < probes; ++i) {
      const size_t rec = static_cast<size_t>(
          Uniform(seed ^ 0x9a217, i) *
          static_cast<double>(in.everything.size()));
      std::vector<data::RecordId> via_socket;
      const bool ok = client.Query(in.everything[rec], &via_socket).ok();
      std::vector<data::RecordId> direct = service.Query(in.everything[rec]);
      std::sort(via_socket.begin(), via_socket.end());
      std::sort(direct.begin(), direct.end());
      mismatches += !ok || via_socket != direct;
    }
  }
  report->Expect("serve.socket_equals_query", mismatches == 0,
                 std::to_string(mismatches) + " of " + std::to_string(probes) +
                     " probes differ");
}

void RunServeUntraced(const Args& a, Report* report) {
  pb::Tracer off;
  const std::string socket = SocketPath(a);
  std::vector<double> setup;
  RateOutcome all;
  double rss = 0.0, input_mb = 0.0;
  size_t records = 0;
  std::printf("checks:\n");
  // Each generated instance in turn: set up twice, then serve its share of
  // the run at the nominal rate on a fresh server.
  for (int j = 0; j < kServeInstances; ++j) {
    ResetPeakRss();
    ServeSetup s;
    for (int i = 0; i < 2; ++i) {
      s = ServeSetup();  // release the previous copy before the next set-up
      s = LoadService(a, j, off);
      setup.push_back(s.load_s + s.make_s + s.preload_s);
    }
    const ServeInputs in = LoadServeInputs(a, j, s.snapshot);
    records += in.everything.size();
    input_mb += FileMb(InputPath(a, SnapshotFile(j))) +
                FileMb(InputPath(a, HeldOutFile(j)));

    const uint64_t seed = a.seed * kServeInstances + j;
    size_t next_insert = 0;
    service::CandidateServer server(s.service.get(), socket, 2);
    Require(server.Start(), "start server");
    CheckSocketParity(socket, in, *s.service, seed, report);
    const RateOutcome r = DriveRate(
        socket, in, seed, kServeRate,
        static_cast<size_t>(kServeRate * a.seconds / kServeInstances),
        &next_insert);
    server.Stop();
    rss = std::max(rss, PeakRssMb());
    all.query_latency.insert(all.query_latency.end(), r.query_latency.begin(),
                             r.query_latency.end());
    all.insert_latency.insert(all.insert_latency.end(),
                              r.insert_latency.begin(), r.insert_latency.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    CheckServeState(a, j, in, *s.service, next_insert, report);
  }
  report->Value("input.records", std::to_string(records));
  report->Value("input.bytes",
                std::to_string(static_cast<long long>(input_mb * 1024 * 1024 +
                                                      0.5)));
  report->attempted += all.attempted;
  report->failed += all.failed;
  report->Add("setup_s", pb::Median(setup), "s", setup.size());
  AddLatency(report, "query", all.query_latency);
  AddLatency(report, "insert", all.insert_latency);
  report->Add("latency_p50_ms", pb::Median(all.query_latency) * 1e3, "ms",
              all.query_latency.size());
  report->Add("peak_rss_mb", rss, "MB");
}

void RunServeTraced(const Args& a, pb::Tracer& tracer, Report* report) {
  std::vector<double> load, make, preload;
  ServeSetup s;
  {
    pb::Span span(tracer, "bench.setup");
    for (int i = 0; i < 3; ++i) {
      s = ServeSetup();
      s = LoadService(a, 0, tracer);
      load.push_back(s.load_s);
      make.push_back(s.make_s);
      preload.push_back(s.preload_s);
    }
  }
  const ServeInputs in = LoadServeInputs(a, 0, s.snapshot);
  report->Add("store.load_s", pb::Median(load), "s", load.size());
  report->Add("store.file_mb", FileMb(InputPath(a, SnapshotFile(0))), "MB");
  report->Add("service.make_s", pb::Median(make), "s", make.size());
  report->Add("service.preload_s", pb::Median(preload), "s", preload.size());

  // In-process index: sequential Query and Insert calls, no socket.
  std::vector<double> q_lat, i_lat;
  double candidates = 0;
  auto query_pass = [&](std::vector<double>* latency, double* found) {
    for (size_t i = 0; i < 2000; ++i) {
      const size_t rec = static_cast<size_t>(
          Uniform(a.seed ^ 0x1de7, i) *
          static_cast<double>(in.everything.size()));
      const double t0 = Now();
      *found +=
          static_cast<double>(s.service->Query(in.everything[rec]).size());
      latency->push_back(Now() - t0);
    }
  };
  double traced_s = 0, untraced_s = 0;
  {
    pb::Span span(tracer, "index.query");
    const double t0 = Now();
    query_pass(&q_lat, &candidates);
    traced_s = Now() - t0;
  }
  if (a.workload == kServe) {
    // The same pass untraced, for the tracing overhead. (Hosted in the
    // cora-table3 traced run, the serving layers leave the overhead to
    // that run's engine job.)
    std::vector<double> unused_latency;
    double unused_found = 0;
    const double t0 = Now();
    query_pass(&unused_latency, &unused_found);
    untraced_s = Now() - t0;
    report->Add("bench.trace_overhead_pct",
                (traced_s - untraced_s) / untraced_s * 100.0, "%");
  }
  {
    pb::Span span(tracer, "index.insert");
    for (size_t i = 0; i < 1000; ++i) {
      const double t0 = Now();
      s.service->Insert(in.heldout.Values(i));
      i_lat.push_back(Now() - t0);
    }
  }
  report->attempted += q_lat.size() + i_lat.size();
  AddLatency(report, "index.query", q_lat);
  AddLatency(report, "index.insert", i_lat);
  report->Add("index.candidates_per_query",
              candidates / static_cast<double>(q_lat.size()), "count",
              q_lat.size());

  // Socket ladder: a fixed set of rates, each on a fresh preloaded index.
  const std::string socket = SocketPath(a);
  std::vector<double> lateness;
  double sustained = 0.0, socket_p50 = 0.0;
  bool sustained_open = true;
  for (double rate : kRateLadder) {
    ServeSetup fresh = LoadService(a, 0, tracer);
    service::CandidateServer server(fresh.service.get(), socket, 2);
    Require(server.Start(), "start server");
    size_t next_insert = 0;
    const size_t n = std::max<size_t>(1200, static_cast<size_t>(rate));
    RateOutcome r;
    {
      pb::Span span(tracer, "service.rate_" + std::to_string(int(rate)));
      r = DriveRate(socket, in, a.seed + static_cast<uint64_t>(rate), rate, n,
                    &next_insert);
    }
    server.Stop();
    report->attempted += r.attempted;
    report->failed += r.failed;
    const std::string prefix = "service.rate_" + std::to_string(int(rate));
    const std::optional<double> p99 = pb::Percentile(r.query_latency, 0.99);
    report->Add(prefix + ".query_p99_us", p99 ? *p99 * 1e6 : 0.0, "us",
                r.query_latency.size());
    report->Add(prefix + ".backlog",
                static_cast<double>(r.backlog.at_end),
                "count");
    if (socket_p50 == 0.0) socket_p50 = pb::Median(r.query_latency);
    // Sustained: the highest rate below which every ladder rate met the
    // limit with no failures and no growing backlog.
    const bool meets = p99 && *p99 * 1e6 <= kLatencyLimitUs &&
                       !r.backlog.grows && r.failed == 0;
    if (meets && sustained_open) sustained = rate;
    sustained_open = sustained_open && meets;
    lateness.insert(lateness.end(), r.lateness.begin(), r.lateness.end());
  }
  report->Add("service.socket_overhead_us",
              (socket_p50 - pb::Median(q_lat)) * 1e6, "us");
  report->Add("service.sustained_qps", sustained, "1/s");
  const std::optional<double> late = pb::Percentile(lateness, 0.99);
  report->Add("bench.loadgen_late_ms_p99", late ? *late * 1e3 : 0.0, "ms",
              lateness.size());
}

// -------------------------------------------------------------------- main

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: sablock_perf gen|run --workload W --seed S ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--data") a.data_dir = val;
    else if (key == "--trace-out") a.trace_out = val;
    else Die("unknown flag " + key);
  }
  if (a.workload != kVoter && a.workload != kCora && a.workload != kServe) {
    Die("unknown workload '" + a.workload + "'");
  }
  if (a.data_dir.empty()) Die("--data is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "sablock_perf: unoptimized build; refusing to measure\n");
  return 3;
#endif
  ::signal(SIGPIPE, SIG_IGN);
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "gen") {
    Generate(a);
    return 0;
  }
  if (a.mode != "run") Die("unknown mode " + a.mode);

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf("env %s\n", EnvJson(nproc).c_str());
  pb::Tracer tracer(a.trace, a.seed + 1);
  Report report;
  if (a.workload == kServe) {
    if (a.trace) {
      RunServeTraced(a, tracer, &report);
    } else {
      RunServeUntraced(a, &report);
    }
  } else if (a.trace) {
    RunBatchTraced(a, nproc, tracer, &report);
    // The serving layers are measured here too, on a Cora-like serving
    // instance: cora-serve's socket latency is not steady enough across
    // runs to be a gated workload (see perfbench/README.md).
    if (a.workload == kCora) RunServeTraced(a, tracer, &report);
  } else {
    RunBatchUntraced(a, nproc, &report);
  }
  if (!a.trace) {
    report.Add("failed_ratio",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<uint64_t>(1, report.attempted)),
               "ratio", report.attempted);
  }
  if (a.trace) {
    const auto self = tracer.SelfSeconds();
    std::printf("self time by span (s):\n");
    for (const auto& [name, secs] : self) {
      std::printf("  %-40s %10.4f\n", name.c_str(), secs);
    }
    if (!a.trace_out.empty() && !tracer.WriteChromeTrace(a.trace_out)) {
      Die("cannot write " + a.trace_out);
    }
  }
  PrintReport(report, nproc);
  return 0;
}
