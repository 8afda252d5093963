#!/usr/bin/env python3
"""Golden digests: pins the simulator's and the numeric server's outputs.

Usage:

    python3 tests/golden/golden.py --sim build/tools/pensieve_sim \
        --transcript build/tests/golden_transcript [--regen]

For each config in CONFIGS the script runs pensieve_sim, keeps its summary
text (every figure in it is virtual time or a count, so it is the same on
every host and thread count), drops the line naming the CSV path and appends
the SHA-256 of the per-request outcomes CSV. The `transcript` digest is the
output of golden_transcript: one StatefulLlmServer run under cache pressure.

Each digest is compared with tests/golden/<name>.digest; any difference
fails the check and prints a diff. --regen rewrites the digest files from
the current build instead. A change to a digest must be explained where the
change is recorded (CHANGES.md).
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# The flash stress config is the CI sanitizer step with the flash tier cut to
# 0.5 GiB, so flash admission evicts. The elastic, disagg and int8 configs are
# the CI elastic, disaggregation and quantized stress steps.
CONFIGS = [
    ("single_default", []),
    ("flash_stress", [
        "--conversations=60", "--replicas=3", "--cache_scale=0.15",
        "--cpu-scale=0.1", "--ssd-capacity=0.5", "--rate=4", "--think=2",
        "--overload_tokens=64", "--overload_factor=1.1",
        "--fault-nic-timeout=0.2", "--fault-nic-corrupt=0.2",
        "--fault-pcie-timeout=0.1", "--fault-pcie-corrupt=0.1",
        "--fault-ssd-timeout=0.1", "--fault-ssd-corrupt=0.1",
        "--fault-max-attempts=2"]),
    ("prefix_templates", [
        "--conversations=40", "--rate=1", "--think=5",
        "--prefix-templates=4", "--prefix-len=200", "--cache_scale=0.3"]),
    ("affinity_4_replicas", [
        "--conversations=200", "--rate=4", "--think=5", "--replicas=4",
        "--router=session-affinity", "--cache_scale=0.3"]),
    ("faults_crash", [
        "--conversations=60", "--replicas=3", "--cache_scale=0.15",
        "--rate=4", "--think=2", "--overload_tokens=64",
        "--overload_factor=1.1", "--fault-nic-timeout=0.2",
        "--fault-nic-corrupt=0.2", "--fault-pcie-timeout=0.1",
        "--fault-max-attempts=2", "--fail-replica=1@40",
        "--recover-replica=1@90"]),
    ("policy_conversation_lru", [
        "--conversations=60", "--rate=2", "--think=5",
        "--policy=conversation-lru", "--cache_scale=0.15"]),
    ("elastic", [
        "--conversations=60", "--replicas=3", "--cache_scale=0.15",
        "--cpu-scale=0.25", "--ssd-capacity=0.5", "--rate=4", "--think=2",
        "--health-probe=on", "--probe-interval=0.5", "--probe-loss=0.1",
        "--sick-replica=1@20:60", "--fault-nic-timeout=0.15",
        "--fault-nic-corrupt=0.1", "--fault-pcie-timeout=0.05",
        "--fault-pcie-corrupt=0.05", "--fault-max-attempts=2",
        "--fail-replica=1@60", "--recover-replica=1@90"]),
    ("autoscale", [
        "--conversations=120", "--replicas=4", "--autoscale=on",
        "--min-replicas=1", "--max-replicas=4", "--rate=4", "--think=2",
        "--cache_scale=0.3"]),
    ("disagg", [
        "--conversations=60", "--replicas=3", "--disagg=on",
        "--prefill-replicas=1", "--cache_scale=0.15", "--cpu-scale=0.1",
        "--ssd-capacity=16", "--rate=4", "--think=2",
        "--overload_tokens=64", "--overload_factor=1.1",
        "--fault-nic-timeout=0.2", "--fault-nic-corrupt=0.2",
        "--fault-pcie-timeout=0.1", "--fault-pcie-corrupt=0.1",
        "--fault-ssd-timeout=0.1", "--fault-ssd-corrupt=0.1",
        "--fault-max-attempts=2", "--fail-replica=2@40,0@60",
        "--recover-replica=2@90,0@80"]),
    ("int8", [
        "--conversations=60", "--replicas=3", "--cache_scale=0.15",
        "--cpu-scale=0.1", "--ssd-capacity=16", "--rate=4", "--think=2",
        "--overload_tokens=64", "--overload_factor=1.1",
        "--weight-quant=int8", "--kv-quant=on",
        "--fault-nic-timeout=0.2", "--fault-nic-corrupt=0.2",
        "--fault-pcie-timeout=0.1", "--fault-pcie-corrupt=0.1",
        "--fault-ssd-timeout=0.1", "--fault-ssd-corrupt=0.1",
        "--fault-max-attempts=2"]),
]


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("golden: %s exited %d" % (cmd[0], proc.returncode))
    return proc.stdout


def sim_digest(sim, args, tmp):
    csv = os.path.join(tmp, "outcomes.csv")
    out = run([sim] + args + ["--outcomes_csv=" + csv])
    lines = [l for l in out.splitlines() if not l.startswith("wrote ")]
    with open(csv, "rb") as f:
        lines.append("outcomes_csv_sha256: " + hashlib.sha256(f.read()).hexdigest())
    header = "# pensieve_sim " + " ".join(args)
    return "\n".join([header.rstrip()] + lines) + "\n"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sim", required=True, help="pensieve_sim binary")
    parser.add_argument("--transcript", required=True,
                        help="golden_transcript binary")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the digest files instead of checking")
    args = parser.parse_args()

    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in CONFIGS:
            digests.append((name, sim_digest(args.sim, flags, tmp)))
    digests.append(("transcript",
                    "# golden_transcript\n" + run([args.transcript])))

    failed = 0
    for name, text in digests:
        path = os.path.join(HERE, name + ".digest")
        if args.regen:
            with open(path, "w") as f:
                f.write(text)
            print("wrote %s" % path)
            continue
        try:
            with open(path) as f:
                expected = f.read()
        except FileNotFoundError:
            expected = ""
        if expected == text:
            print("ok      %s" % name)
            continue
        failed += 1
        print("DIFFERS %s" % name)
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(True), text.splitlines(True),
            path, "current build"))
    if failed:
        print("%d of %d digests differ" % (failed, len(digests)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
