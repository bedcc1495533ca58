// Experiment E10 — Fig. 13: PC / PQ / RR and wall time of LSH and SA-LSH
// over Voter-like datasets of increasing size (10k .. 292,892 records,
// the paper's series), plus the time to build the semantic function (SF):
// taxonomy construction + record interpretation + semhash signatures.
//
// Beyond the paper's single-core figure, SA-LSH is also run through the
// execution engine at --threads=N workers (the SA-LSH/par rows). The
// workers split the technique's own work and never change its blocks, so
// the scenario checks that every engine row's metrics equal the serial
// SA-LSH row's and FAILS (nonzero exit) otherwise. The engine_scaling
// scenario isolates the speedup measurement.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/semhash.h"
#include "engine/execution_spec.h"
#include "engine/thread_pool.h"
#include "eval/harness.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

int RunFig13Scalability(report::BenchContext& ctx) {
  using sablock::core::LshBlocker;
  using sablock::core::SemanticAwareLshBlocker;
  using sablock::core::SemanticMode;
  using sablock::core::SemanticParams;

  size_t max_records = ctx.SizeOr("max", 292892, 5000);
  int threads = static_cast<int>(ctx.SizeOr(
      "threads",
      static_cast<size_t>(
          std::min(4, sablock::engine::ThreadPool::DefaultThreads())),
      2));

  std::printf("Fig. 13 reproduction (E10): scalability on Voter-like data\n"
              "(k=9, l=15; engine rows: threads=%d)\n\n",
              threads);

  // Generate the full set once; prefixes give the size series.
  sablock::data::Dataset full = MakePaperVoter(max_records);

  std::vector<size_t> sizes;
  for (size_t n : {10000u, 50000u, 100000u, 150000u, 200000u, 240000u,
                   292892u}) {
    if (n <= max_records) sizes.push_back(n);
  }
  if (sizes.empty() || sizes.back() != max_records) {
    sizes.push_back(max_records);
  }

  eval::TablePrinter table(
      {"records", "method", "threads", "PC", "PQ", "RR", "time(s)"});
  sablock::core::LshParams p = VoterLshParams();
  bool engine_rows_equal = true;
  auto add_row = [&](size_t n, const std::string& method, int t,
                     const eval::TechniqueResult& r,
                     const report::RepeatStats& stats,
                     const sablock::data::Dataset& d) {
    table.AddRow({std::to_string(n), method, std::to_string(t),
                  FormatDouble(r.metrics.pc, 4),
                  FormatDouble(r.metrics.pq, 4),
                  FormatDouble(r.metrics.rr, 4),
                  FormatDouble(r.seconds, 2)});
    report::RunResult run = TechniqueRun(
        method + " t=" + std::to_string(t), "", "voter-like", d, r, stats);
    run.AddParam("threads", std::to_string(t));
    ctx.Record(std::move(run));
  };

  for (size_t n : sizes) {
    sablock::data::Dataset d = full.Prefix(n);
    sablock::core::Domain domain = sablock::core::MakeVoterDomain();

    report::RepeatStats stats;
    eval::TechniqueResult lsh = RunTimed(ctx, LshBlocker(p), d, &stats);
    add_row(n, "LSH", 1, lsh, stats, d);

    SemanticParams sp;
    sp.w = 12;
    sp.mode = SemanticMode::kOr;
    sp.seed = 11;
    SemanticAwareLshBlocker sa_lsh(p, sp, domain.semantics);
    eval::TechniqueResult sa = RunTimed(ctx, sa_lsh, d, &stats);
    add_row(n, "SA-LSH", 1, sa, stats, d);

    // The same SA-LSH setting through the engine at `threads` workers:
    // identical blocks (and so identical metrics), wall time divided by
    // the parallelism the hardware provides. Engine runs are not
    // repeated — the engine_scaling scenario owns that measurement.
    sablock::engine::ExecutionSpec spec;
    spec.threads = threads;
    eval::TechniqueResult par = sablock::eval::RunTechnique(sa_lsh, d, spec);
    add_row(n, "SA-LSH/par", threads, par,
            report::SummarizeSeconds({par.seconds}), d);
    engine_rows_equal = engine_rows_equal && par.metrics == sa.metrics;

    // SF: building the semantic machinery alone (taxonomy + interpretation
    // + semhash signatures), the dashed series of Fig. 13(d).
    sablock::WallTimer sf_timer;
    sablock::core::Domain sf_domain = sablock::core::MakeVoterDomain();
    auto zetas = sf_domain.semantics->InterpretAll(d);
    auto enc =
        sablock::core::SemhashEncoder::Build(sf_domain.taxonomy(), zetas);
    auto sigs = enc.EncodeAll(sf_domain.taxonomy(), zetas);
    double sf_seconds = sf_timer.Seconds();
    table.AddRow({std::to_string(n), "SF", "1", "-", "-", "-",
                  FormatDouble(sf_seconds, 2)});
    report::RunResult sf;
    sf.name = "SF";
    sf.dataset = "voter-like";
    sf.dataset_records = d.size();
    sf.time = report::SummarizeSeconds({sf_seconds});
    ctx.Record(std::move(sf));
  }
  table.Print();

  std::printf(
      "\nShape check (paper, Fig. 13): PC stays flat across sizes (clean\n"
      "semantics), SA-LSH's PQ stays well above LSH's, RR ~0.9999\n"
      "everywhere, and all three time series grow linearly with the\n"
      "number of records, SF being the cheapest.\n");
  std::printf("\nengine check (every SA-LSH/par row's metrics equal the "
              "serial SA-LSH row's): %s\n",
              engine_rows_equal ? "PASS" : "FAIL");
  return engine_rows_equal ? 0 : 1;
}

}  // namespace

void RegisterFig13Scalability(report::BenchRegistry& registry) {
  registry.Register(
      {"fig13_scalability",
       "LSH / SA-LSH / SF scalability over growing Voter sets (E10)",
       {"max", "threads"}},
      RunFig13Scalability);
}

}  // namespace sablock::bench
