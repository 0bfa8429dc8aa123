#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark with
CMake into .bench_build/perfbench, runs the arithmetic self-test, then:

  --trace 0  runs SETUP_REPEATS set-up-only processes plus one measured
             process and reports the end-to-end metrics, setup_s being
             the median set-up time of all of them;
  --trace 1  runs one untraced and one traced measured process on the
             same seed and reports the per-layer metrics of the traced
             one, plus trace.overhead.<metric> = traced - untraced for
             every end-to-end metric. The traced run's spans are written
             to .bench_build/perfbench/spans-<workload>-seed<seed>.csv.

The last line of stdout is the result JSON; earlier lines carry each
process's execution identity ("stamp"). Exits non-zero without a result
when the build, the self-test or a run fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("classify_short", "decode_stream", "long_context")
SETUP_REPEATS = 4
OVERHEAD = "trace.overhead."
RUN_TIMEOUT_S = 150


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die(f"no library sources next to {HERE.name}/ - run from a full checkout")
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
              "--target", "perfbench", "perfbench_selftest"]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    r = subprocess.run([str(BUILD / "perfbench_selftest")],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if r.returncode != 0:
        die("arithmetic self-test failed")


def child_env():
    # The library reads these; a caller's values would change what is
    # measured (FABNET_NUM_THREADS) or write outside the checkout
    # (FABNET_TUNE_CACHE).
    env = {k: v for k, v in os.environ.items() if not k.startswith("FABNET_")}
    return env


def run_bench(args, extra):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if r.returncode != 0 or not lines:
        die(f"exit {r.returncode}: {' '.join(cmd)}")
    for ln in lines[:-1]:
        print(ln)
    return json.loads(lines[-1])


def declared():
    """End-to-end and per-layer metric units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pick(values, units, what):
    missing = sorted(set(units) - set(values))
    if missing:
        die(f"{what} run did not report {', '.join(missing)}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in 1..60")
    end_to_end, per_layer = declared()
    build()

    if args.trace == 0:
        setups = [run_bench(args, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        out = run_bench(args, ["--trace", "0"])
        setups.append(out["setup_s"])
        e2e = dict(out["e2e"], setup_s=statistics.median(setups))
        metrics = pick(e2e, end_to_end, "untraced")
        problems = out["problems"]
    else:
        plain = run_bench(args, ["--trace", "0"])
        traced = run_bench(args, ["--trace", "1", "--spans", str(
            BUILD / f"spans-{args.workload}-seed{args.seed}.csv")])
        plain_e2e = dict(plain["e2e"], setup_s=plain["setup_s"])
        traced_e2e = dict(traced["e2e"], setup_s=traced["setup_s"])
        layers = dict(traced["layers"])
        for k in end_to_end:
            layers[OVERHEAD + k] = traced_e2e[k] - plain_e2e[k]
        metrics = pick(layers, per_layer, "traced")
        problems = plain["problems"] + traced["problems"]
        out = {"correct": plain["correct"] and traced["correct"],
               "attempted": plain["attempted"] + traced["attempted"],
               "failed": plain["failed"] + traced["failed"]}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result(out["correct"], out["attempted"], out["failed"], metrics)


if __name__ == "__main__":
    main()
