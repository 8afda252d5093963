#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--small]

The first call configures and builds perfbench/ (which compiles ../src) in
$CARGO_TARGET_DIR, or .bench_build/ when that is unset; later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of standard output is the benchmark's JSON result. Exits non-zero without a
result when the build fails, e.g. when the library sources are missing.

BENCHMARK.json is the one list of metrics. The program reports the metrics
it measured; this script checks each name and unit against that list,
orders them by it and gives a per-layer metric of a layer the workload does
not exercise the value 0. A missing end-to-end metric, or a name or unit
the list does not have, is an error: the script exits non-zero without a
result.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        make = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        return subprocess.run(make, stdout=sys.stderr).returncode == 0


def canonical(result, specs, fill_missing):
    """Returns the result with its metrics in the order of `specs`, or None."""
    produced = result["metrics"]
    units = {s["name"]: s["unit"] for s in specs}
    for name, metric in produced.items():
        if units.get(name) != metric["unit"]:
            print("perfbench: metric %s [%s] is not in BENCHMARK.json" %
                  (name, metric["unit"]), file=sys.stderr)
            return None
    metrics = {}
    for spec in specs:
        if spec["name"] in produced:
            metrics[spec["name"]] = produced[spec["name"]]
        elif fill_missing:
            metrics[spec["name"]] = {"value": 0, "unit": spec["unit"]}
        else:
            print("perfbench: workload did not report " + spec["name"],
                  file=sys.stderr)
            return None
    return dict(result, metrics=metrics)


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
    binary = os.path.join(out, "perfbench")
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    result = canonical(json.loads(lines[-1]),
                       bench["per_layer" if traced else "end_to_end"],
                       fill_missing=traced)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
