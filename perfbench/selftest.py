#!/usr/bin/env python3
"""Tests of the benchmark itself, at small size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs an untraced and a traced
small-size run (--small --seconds 1) and checks the result line against
BENCHMARK.json: exact keys, every metric with its unit, correct == true and
no failed operation, non-zero end-to-end values, and that each workload
exercises its layers: evicting steps take at least half of sim-pressure's
wall time; sim-tiered has flash GC moves, promotes and prefix dedup hits,
and the flash counters are 0 elsewhere; numeric-chat has restore and
recompute turns, and its decode step holds the separately timed attention
and GEMMs (the remainder is not below -5% of the step). It then checks
that the benchmark fails cleanly (non-zero exit, no result line) in a
directory holding only BENCHMARK.json and the benchmark's own files. Exits
non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc


def result_of(proc, label):
    if proc.returncode != 0:
        fail("%s exited %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s\n%s" % (label, result["correct"],
                                               result["failed"], proc.stdout))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (label, result["attempted"]))
    return result["metrics"]


def check_metrics(metrics, specs, label, nonzero):
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        missing = set(names) - set(metrics)
        extra = set(metrics) - set(names)
        fail("%s: missing %s extra %s" % (label, sorted(missing), sorted(extra)))
    for spec in specs:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"] or not math.isfinite(m["value"]):
            fail("%s: %s = %r (expected unit %s)" % (label, spec["name"], m,
                                                    spec["unit"]))
        if nonzero and m["value"] == 0:
            fail("%s: end-to-end metric %s is 0" % (label, spec["name"]))


def check_layers(workload, v, label):
    flash = ["flash.demoted_chunks", "flash.promoted_chunks", "flash.gc_moves"]
    if workload == "sim-tiered":
        for name in flash + ["prefix.dedup_hit_requests"]:
            if v[name] <= 0:
                fail("%s: %s = %g, expected > 0" % (label, name, v[name]))
    else:
        for name in flash:
            if v[name] != 0:
                fail("%s: %s = %g outside sim-tiered" % (label, name, v[name]))
    if workload == "sim-pressure" and v["scheduler.evict_step_share"] < 0.5:
        fail("%s: evicting steps take %.3f of the wall time, expected >= 0.5"
             % (label, v["scheduler.evict_step_share"]))
    if workload == "numeric-chat":
        if v["core.restore_turns"] <= 0 or v["core.recompute_turns"] <= 0:
            fail("%s: restore %g recompute %g turns" % (
                label, v["core.restore_turns"], v["core.recompute_turns"]))
        # The remainder is the step minus the separately timed attention and
        # GEMMs; it is only a decomposition if those fit inside the step. The
        # true remainder (norms, rotary, KV writes, activations) is a few
        # percent of the step, so timing noise may push it slightly below
        # zero; more than 5% of the step below zero means the parts were not
        # measured like the step.
        step_us = v["model.decode_step_ms"] * 1e3
        if v["model.decode_other_us"] < -0.05 * step_us:
            fail("%s: attention %g + GEMM %g us exceed the decode step %g us"
                 % (label, v["kernels.attn_decode_us"],
                    v["tensor.gemm_decode_us"], step_us))
    trace_file = os.path.join(ROOT, ".bench_out", workload + ".trace.json")
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    if not events or any(e["ph"] != "X" for e in events):
        fail("%s: malformed trace %s" % (label, trace_file))


def check_bare_checkout():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sim-tiered",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, env=env, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("bare checkout: exit %d, stdout %r" % (proc.returncode,
                                                   proc.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        e2e = result_of(run(name, 0), name + " --trace 0")
        check_metrics(e2e, bench["end_to_end"], name + " --trace 0", True)
        layers = result_of(run(name, 1), name + " --trace 1")
        check_metrics(layers, bench["per_layer"], name + " --trace 1", False)
        check_layers(name, {k: m["value"] for k, m in layers.items()},
                     name + " --trace 1")
        print("selftest %s: ok" % name)
    check_bare_checkout()
    print("selftest bare checkout: ok")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
