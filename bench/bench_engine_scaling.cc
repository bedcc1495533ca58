// Engine scalability: SA-LSH (the paper's Voter operating point, k=9,
// l=15, w=12/OR) on a Voter-like dataset, run through the execution
// engine at 1, 2, 4 and 8 threads.
//
// The threads split the technique's own work (band keys, semantic key
// parts, radix sort) and emission stays on the calling thread, so every
// row must emit exactly the blocks() sequence of a plain technique.Run.
// The scenario compares each row with that reference and FAILS (nonzero
// exit) on any difference. The feature columns are warmed once, untimed,
// by the reference run, so the time column isolates the grouping layer
// rather than the one-time feature build. Reports speedup vs. the
// 1-thread row; a single-core machine cannot show >1x, and the scenario
// prints the hardware parallelism so that is visible.
//
// Flags: --records=N (default 50000), plus the runner's --repeat (min
// wall time over R runs per row).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "engine/sharded_executor.h"
#include "engine/thread_pool.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

int RunEngineScaling(report::BenchContext& ctx) {
  size_t records = ctx.SizeOr("records", 50000, 4000);
  // Timing rows want best-of-2 even when the runner default is 1.
  int repeat = ctx.repeat > 1 ? ctx.repeat : 2;

  std::printf(
      "Engine scaling: SA-LSH on %zu Voter-like records,\n"
      "best of %d runs per row (hardware threads available: %d)\n\n",
      records, repeat, sablock::engine::ThreadPool::DefaultThreads());

  sablock::data::Dataset dataset = MakePaperVoter(records);
  const std::string spec_string =
      "sa-lsh:domain=voter,k=9,l=15,q=2,w=12,mode=or";
  std::unique_ptr<sablock::core::BlockingTechnique> technique =
      FromSpec(spec_string);

  // The plain run: the reference every row must reproduce, and the
  // untimed warm-up of the shared feature cache.
  sablock::core::BlockCollection reference;
  technique->Run(dataset, reference);

  eval::TablePrinter table({"threads", "PC", "PQ", "RR", "blocks",
                            "= Run", "time(s)", "speedup"});
  double base_seconds = 0.0;
  bool identical = true;

  for (int threads : {1, 2, 4, 8}) {
    sablock::engine::ExecutionSpec spec;
    spec.threads = threads;
    sablock::engine::ShardedExecutor executor(spec);

    std::vector<double> seconds;
    sablock::core::BlockCollection blocks;
    for (int run = 0; run < repeat; ++run) {
      blocks = sablock::core::BlockCollection();
      sablock::WallTimer timer;
      executor.Execute(*technique, dataset, blocks);
      seconds.push_back(timer.Seconds());
    }
    report::RepeatStats stats =
        report::SummarizeSeconds(std::move(seconds));
    double best = stats.min_s;
    if (threads == 1) base_seconds = best;
    const bool same = blocks.blocks() == reference.blocks();
    identical = identical && same;
    sablock::eval::Metrics m = sablock::eval::Evaluate(dataset, blocks);

    table.AddRow({std::to_string(threads), FormatDouble(m.pc, 4),
                  FormatDouble(m.pq, 4), FormatDouble(m.rr, 4),
                  std::to_string(static_cast<unsigned long long>(
                      m.num_blocks)),
                  same ? "yes" : "NO", FormatDouble(best, 3),
                  FormatDouble(base_seconds / best, 2) + "x"});

    report::RunResult run;
    run.name = "threads=" + std::to_string(threads);
    run.spec = spec_string;
    run.dataset = "voter-like";
    run.dataset_records = dataset.size();
    run.AddParam("threads", std::to_string(threads));
    run.time = stats;
    run.has_metrics = true;
    run.metrics = m;
    ctx.Record(std::move(run));
  }
  table.Print();

  std::printf("\ndeterminism check (every row emits the blocks() sequence "
              "of a plain Run): %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}

}  // namespace

void RegisterEngineScaling(report::BenchRegistry& registry) {
  registry.Register(
      {"engine_scaling",
       "engine threading speedup + threads=N == plain Run check",
       {"records"}},
      RunEngineScaling);
}

}  // namespace sablock::bench
