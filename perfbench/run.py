#!/usr/bin/env python3
"""The sablock benchmark.

    python3 perfbench/run.py --workload voter-fig13 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a sablock checkout. The script builds the library and
the measuring program (perfbench/src/sablock_perf.cc) from source with
optimization, generates the workload's inputs from the seed, runs the
workload, checks its outputs and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics named in BENCHMARK.json; with --trace 1 they are
the per-layer metrics, and a Chrome trace is written to .bench_out/.
See perfbench/README.md for every workload and metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("voter-fig13", "cora-table3", "cora-serve")
RUN_LIMIT_S = 170  # every run, build excluded, ends well inside 180 s


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "lsh_blocker.h")):
        die("no sablock sources (src/) beside perfbench/: run from a checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return out


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def check_pinned(workload, seed, seconds, values, expected):
    """Compares the run's pinned values with expected.json (default seed)."""
    pins = expected["workloads"].get(workload, {})
    if seed != expected["default_seed"]:
        return []
    if "seconds" in pins and seconds != pins["seconds"]:
        return []
    problems = []
    for key, want in pins.get("values", {}).items():
        got = values.get(key)
        if got is not None and got != want:
            problems.append(f"{key}: got {got}, pinned {want}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        die("--workload is required")
    if args.seed < 0:
        die("--seed must be non-negative")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(HERE, "expected.json"))
    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)

    start = time.monotonic()
    perf = os.path.join(out, "sablock_perf")
    data = os.path.join(".bench_data", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    trace_out = os.path.join(".bench_out", f"trace-{args.workload}-s{args.seed}.json")
    os.makedirs(os.path.join(ROOT, data))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--data", data]
    try:
        # Inputs are made outside any timed region, by a separate process.
        gen = subprocess.run([perf, "gen"] + common, cwd=ROOT,
                             timeout=RUN_LIMIT_S, capture_output=True, text=True)
        if gen.returncode != 0:
            die("input generation failed: " + gen.stderr.strip())
        run = subprocess.run(
            [perf, "run"] + common + [
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-out", trace_out],
            cwd=ROOT, timeout=max(1, RUN_LIMIT_S - (time.monotonic() - start)),
            capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        die("the workload did not finish in time")
    finally:
        shutil.rmtree(os.path.join(ROOT, data), ignore_errors=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        die(f"sablock_perf exited with {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    env, values = result["env"], result["values"]
    print(f"env: nproc={env['nproc']} isa={env['isa']} "
          f"build={env['build_type']} compiler={env['compiler']}")
    if "input.records" in values:
        print(f"input: {values['input.records']} records, "
              f"{values['input.bytes']} bytes")

    problems = [f"check {c['name']}: {c['detail']}"
                for c in result["checks"] if not c["ok"]]
    problems += check_pinned(args.workload, args.seed, args.seconds, values,
                             expected)
    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif args.trace:
            value = 0.0  # a layer this workload does not run
        else:
            problems.append(f"end-to-end metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        print("PROBLEM", p)
    print(json.dumps({"correct": not problems,
                      "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
