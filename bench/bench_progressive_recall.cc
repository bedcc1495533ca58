// progressive_recall — recall@budget curves for the progressive pair
// schedulers. A fixed base blocking (token blocking + block purging)
// produces the candidate blocks; every scheduler then orders the same
// distinct-pair universe and is sampled at the default budget-fraction
// ladder against a budget of half the distinct pairs — the regime where
// emission order actually matters. The gate: the edge-weight scheduler
// (ew-cbs) must strictly dominate the seeded random baseline at every
// sampled fraction, in quick and full mode alike. A scheduler that only
// ties random is not buying its scheduling cost back.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "scenarios.h"
#include "common/check.h"
#include "common/timer.h"
#include "eval/metrics.h"
#include "pipeline/pipeline.h"
#include "progressive/scheduler.h"
#include "report/bench_registry.h"

namespace sablock::bench {

namespace {

struct SchedulerRun {
  std::string sched;
  eval::RecallCurve curve;
  report::RepeatStats stats;
};

int RunProgressiveRecall(report::BenchContext& ctx) {
  const size_t records = ctx.SizeOr("cora", 1879, 400);
  data::Dataset dataset = MakePaperCora(records);

  const std::string base_spec =
      "token-blocking:attrs=authors+title | purge:max_size=100";
  std::unique_ptr<pipeline::PipelinedBlocker> base;
  Status status = pipeline::Build(base_spec, &base);
  SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
  core::BlockCollection blocks = RunStreaming(*base, dataset);

  std::printf("progressive recall@budget — %zu cora-like records, %s\n",
              dataset.size(), base_spec.c_str());

  // `random` runs first: it enumerates the full distinct-pair universe
  // (like every scheduler), so its schedule sizes the shared budget.
  const std::vector<std::string> scheds = {"random", "bsa", "rr", "ew-cbs"};
  const std::vector<double> fractions = eval::DefaultRecallFractions();
  uint64_t budget = 0;
  std::vector<SchedulerRun> runs;
  for (const std::string& name : scheds) {
    std::unique_ptr<progressive::PairScheduler> scheduler;
    status = progressive::MakeScheduler(name, /*seed=*/42, &scheduler);
    SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
    SchedulerRun r;
    r.sched = name;
    std::vector<progressive::CandidatePair> ordered;
    r.stats = ctx.TimeRepeats([&](int) {
      WallTimer timer;
      ordered = scheduler->Schedule(dataset.size(), blocks);
      return timer.Seconds();
    });
    if (budget == 0) budget = std::max<uint64_t>(ordered.size() / 2, 1);
    r.curve = eval::RecallAtBudget(dataset, ordered, budget, fractions);
    runs.push_back(std::move(r));
  }

  eval::TablePrinter table({"scheduler", "f=0.05", "f=0.20", "f=0.50",
                            "f=1.00", "auc", "sched_s"});
  auto at = [&](const eval::RecallCurve& curve, double fraction) {
    for (const eval::RecallPoint& p : curve.points) {
      if (p.fraction == fraction) return p.recall;
    }
    return 0.0;
  };
  for (const SchedulerRun& r : runs) {
    char buf[5][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%.4f", at(r.curve, 0.05));
    std::snprintf(buf[1], sizeof(buf[1]), "%.4f", at(r.curve, 0.2));
    std::snprintf(buf[2], sizeof(buf[2]), "%.4f", at(r.curve, 0.5));
    std::snprintf(buf[3], sizeof(buf[3]), "%.4f", at(r.curve, 1.0));
    std::snprintf(buf[4], sizeof(buf[4]), "%.4f", r.curve.auc);
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.3f", r.stats.min_s);
    table.AddRow({r.sched, buf[0], buf[1], buf[2], buf[3], buf[4],
                  seconds});
  }
  table.Print();
  std::printf("budget: %llu pairs (half the distinct-pair universe)\n",
              static_cast<unsigned long long>(budget));

  for (const SchedulerRun& r : runs) {
    report::RunResult run;
    run.name = r.sched;
    run.spec = base_spec;
    run.dataset = "cora-like";
    run.dataset_records = dataset.size();
    run.time = r.stats;
    run.has_recall = true;
    run.recall = r.curve;
    run.AddParam("budget_pairs", std::to_string(budget));
    run.AddValue("auc", r.curve.auc);
    ctx.Record(std::move(run));
  }

  // The gate: ew-cbs strictly above random at every sampled fraction.
  // bsa and rr ride along informationally — they are ordering baselines,
  // not the technique under test.
  const SchedulerRun& random_run = runs.front();
  int exit_code = 0;
  for (const SchedulerRun& r : runs) {
    if (r.sched != "ew-cbs") continue;
    for (size_t i = 0; i < r.curve.points.size(); ++i) {
      const eval::RecallPoint& mine = r.curve.points[i];
      const eval::RecallPoint& base_point = random_run.curve.points[i];
      if (mine.recall <= base_point.recall) {
        std::printf(
            "GATE FAIL: %s recall %.4f <= random %.4f at fraction %.2f\n",
            r.sched.c_str(), mine.recall, base_point.recall,
            mine.fraction);
        exit_code = 1;
      }
    }
  }
  if (exit_code == 0) {
    std::printf(
        "gate: ew-cbs strictly dominates random at all %zu fractions\n",
        fractions.size());
  }
  return exit_code;
}

}  // namespace

void RegisterProgressiveRecall(report::BenchRegistry& registry) {
  registry.Register(
      {"progressive_recall",
       "recall@budget curves: progressive schedulers vs random pair order",
       {"cora"}},
      RunProgressiveRecall);
}

}  // namespace sablock::bench
