#ifndef SABLOCK_REPORT_BENCH_REGISTRY_H_
#define SABLOCK_REPORT_BENCH_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report/run_result.h"

namespace sablock::report {

/// Everything a benchmark scenario needs from the runner: the run mode
/// (quick smoke sizes vs. the paper's full sizes), the timing repetition
/// count, numeric command-line overrides, and the sink for RunResults.
class BenchContext {
 public:
  bool quick = false;
  int repeat = 1;

  /// Numeric `--name=value` overrides passed through the runner (e.g.
  /// --cora=500, --voter=2000, --threads=4). Scenario code never parses
  /// argv itself.
  std::map<std::string, size_t> flags;

  /// The scenario being run; stamped onto recorded results.
  std::string scenario;

  /// The size for `flag`: the explicit override when given, otherwise
  /// `quick_size` in quick mode and `full_size` in full mode.
  size_t SizeOr(const std::string& flag, size_t full_size,
                size_t quick_size) const {
    auto it = flags.find(flag);
    if (it != flags.end()) return it->second;
    return quick ? quick_size : full_size;
  }

  /// Records one measured run (stamps the current scenario name).
  void Record(RunResult run) {
    run.scenario = scenario;
    runs_.push_back(std::move(run));
  }

  /// Runs `once` (which returns the seconds of one timed repetition)
  /// `repeat` times and summarizes. The first repetition's index is
  /// passed so callers can keep side outputs from a designated run.
  RepeatStats TimeRepeats(
      const std::function<double(int rep)>& once) const {
    std::vector<double> seconds;
    seconds.reserve(static_cast<size_t>(repeat));
    for (int rep = 0; rep < repeat; ++rep) seconds.push_back(once(rep));
    return SummarizeSeconds(std::move(seconds));
  }

  std::vector<RunResult>& runs() { return runs_; }
  const std::vector<RunResult>& runs() const { return runs_; }

 private:
  std::vector<RunResult> runs_;
};

/// Registry entry metadata for one benchmark scenario.
struct ScenarioInfo {
  std::string name;     ///< e.g. "table3_fig11_baselines"
  std::string summary;  ///< one-line description for --list
  /// The size-override flags this scenario reads via SizeOr (e.g.
  /// "cora", "voter"). The runner validates --NAME=NUMBER arguments
  /// against the union of these, so a declared flag is the only way a
  /// scenario can receive one — mirroring BlockerRegistry's ParamDoc.
  std::vector<std::string> size_flags;
};

/// Maps scenario names to runnable benchmark functions — the benchmark
/// suite's mirror of api::BlockerRegistry. The figure/table experiments
/// in bench/ register themselves here (see bench/all_scenarios.cc) and
/// the single `sablock_bench` runner selects, runs and reports them.
class BenchRegistry {
 public:
  /// A scenario prints its human tables, records RunResults through the
  /// context and returns a process-style exit code (nonzero = the
  /// scenario's own invariant check failed).
  using Fn = std::function<int(BenchContext&)>;

  /// The process-wide registry. Scenarios live outside the library, so
  /// this starts empty; bench::RegisterAllScenarios fills it.
  static BenchRegistry& Global();

  /// Registers a scenario. Duplicate names abort (programming error).
  void Register(ScenarioInfo info, Fn fn);

  /// Entries sorted by name.
  std::vector<ScenarioInfo> List() const;

  /// Exact-name lookup; nullptr when absent.
  const Fn* Find(const std::string& name) const;

 private:
  std::vector<std::pair<ScenarioInfo, Fn>> entries_;
  std::map<std::string, size_t> index_;
};

}  // namespace sablock::report

#endif  // SABLOCK_REPORT_BENCH_REGISTRY_H_
