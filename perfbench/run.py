#!/usr/bin/env python3
"""The repository benchmark: build, run, smoke-test and compare.

Build and run state lives under .bench_build/ at the repository root:

  python3 perfbench/run.py --workload rewrite4 --seed 1 --seconds 20 --trace 0
      Builds the benchmark binary (perfbench/CMakeLists.txt, into
      .bench_build/perfbench), builds the NPN-4 database on first use, runs
      one workload and relays the binary's output; its last line is the
      result JSON.

  python3 perfbench/run.py smoke
      A tiny run of every workload, untraced and traced, asserting that every
      metric BENCHMARK.json names is emitted with its unit and that all jobs
      passed the output check.

  python3 perfbench/run.py sample --out DIR [--runs 10] [--first-seed 1]
                                  [--workloads a,b] [--trace 0]
      Runs each workload once per seed, saves each result line as
      DIR/<workload>-seed<N>.json and prints each metric's median, quartiles
      and spread (interquartile distance over the median) against its bound.

  python3 perfbench/run.py compare BASE_DIR NEW_DIR
      Compares two sets of runs saved by `sample`: per workload and metric,
      the median and quartiles of each side, and whether the new median is
      within the metric's bound of the base, worse, or unresolved (a spread
      wider than the bound on either side).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DATABASE = os.path.join(WORK_DIR, "mig_npn4.db")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark binary; clears run state when it changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "api.hpp")):
        fail("the library sources (src/) are missing next to perfbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    os.makedirs(WORK_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: " + log_path + ")")
    if before != os.path.getmtime(BINARY):
        # Deterministic-counter records and equivalence verdicts belong to
        # the build that produced them.
        shutil.rmtree(os.path.join(WORK_DIR, "state"), ignore_errors=True)
    if not os.path.exists(DATABASE):
        if subprocess.run([BINARY, "--build-db", DATABASE]).returncode:
            fail("cannot build the NPN-4 database")


def run_binary(workload, seed, seconds, trace, tiny=False, capture=False):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR, "--db", DATABASE]
    if tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    if done.returncode:
        fail(f"{workload} exited with code {done.returncode}")
    return done.stdout


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def smoke():
    build()
    bench = spec()
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_line(run_binary(workload, 1, 1, trace, tiny=True,
                                            capture=True))
            emitted = result["metrics"]
            for metric in bench[key]:
                got = emitted.get(metric["name"])
                if got is None:
                    problems.append(f"{workload}: {metric['name']} not emitted")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got.get('unit')!r}, expected {metric['unit']!r}")
            extra = set(emitted) - {m["name"] for m in bench[key]}
            if extra:
                problems.append(f"{workload}: unlisted metrics {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: correct="
                                f"{result['correct']} failed={result['failed']}")
            print(f"smoke {workload} trace={trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} jobs")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf") if q3 != q1 else 0.0


def load_runs(directory):
    """{workload: {metric: [values]}} from DIR/<workload>-seed<N>.json."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "-seed" not in name:
            continue
        workload = name.rsplit("-seed", 1)[0]
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        for metric, entry in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(metric, []).append(entry["value"])
    return runs


def metric_specs():
    bench = spec()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def sample(args):
    build()
    os.makedirs(args.out, exist_ok=True)
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            stdout = run_binary(workload, seed, bench["run_seconds"], args.trace,
                                capture=True)
            result = result_line(stdout)
            if not result["correct"] or result["failed"]:
                fail(f"{workload} seed {seed}: correct={result['correct']} "
                     f"failed={result['failed']}")
            with open(os.path.join(args.out, f"{workload}-seed{seed}.json"), "w") as f:
                f.write(json.dumps(result) + "\n")
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    report(load_runs(args.out))
    return 0


def report(runs):
    specs = metric_specs()
    for workload, metrics in runs.items():
        print(f"== {workload} ({len(next(iter(metrics.values())))} runs)")
        for metric, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            bound = specs.get(metric, {}).get("bound")
            s = spread(values)
            verdict = "" if bound is None else \
                ("steady" if s < bound / 3 else "within bound" if s <= bound else "UNSTEADY")
            print(f"  {metric:36s} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:7.4f} {'' if bound is None else f'bound {bound}'} {verdict}")


def compare(base_dir, new_dir):
    specs = metric_specs()
    base, new = load_runs(base_dir), load_runs(new_dir)
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for metric in base[workload]:
            if metric not in new[workload]:
                continue
            b, n = base[workload][metric], new[workload][metric]
            bq, nq = quartiles(b), quartiles(n)
            entry = specs.get(metric, {})
            bound, better = entry.get("bound"), entry.get("better", "lower")
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            worse = change if better == "lower" else -change
            if bound is None:
                verdict = "reported"
            elif max(spread(b), spread(n)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
            else:
                verdict = "within bound"
            print(f"  {metric:36s} base {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"new {nq[1]:<11.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  "
                  f"{change:+7.2%}  {verdict}")
    return 0


def main():
    # Build and work paths are relative to the repository root (the server
    # socket lives there, and a unix socket path is limited to ~100 bytes);
    # directories the user names are resolved before moving there.
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE_DIR NEW_DIR", 2)
        base, new = os.path.abspath(sys.argv[2]), os.path.abspath(sys.argv[3])
        os.chdir(ROOT)
        return compare(base, new)
    if len(sys.argv) > 1 and sys.argv[1] == "sample":
        parser = argparse.ArgumentParser(prog="run.py sample")
        parser.add_argument("--out", required=True)
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--workloads", default="")
        parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
        args = parser.parse_args(sys.argv[2:])
        args.out = os.path.abspath(args.out)
        os.chdir(ROOT)
        return sample(args)
    os.chdir(ROOT)
    if len(sys.argv) > 1 and sys.argv[1] == "smoke":
        return smoke()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    build()
    run_binary(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
