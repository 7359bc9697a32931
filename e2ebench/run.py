#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The first run builds the
benchmark binary from the checkout's sources with CMake, into
.bench_build/e2ebench; later runs reuse that build. The binary generates the
workload's inputs from the seed, measures for the given seconds, checks every
answer, and reports. This script prints the binary's report lines, then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1, each with the unit BENCHMARK.json declares. The traced run also
writes its spans to .bench_build/e2ebench/spans/.

Exit status: 0 when every check passed and every metric was measured,
non-zero otherwise (including when the sources cannot be built).
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = any(os.path.exists(os.path.join(BUILD, f))
                         for f in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-6000:])
                sys.exit("build failed: " + " ".join(step))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit("unknown workload %r; expected one of %s" %
                 (args.workload, ", ".join(names)))
    build()
    code, lines = run_binary(args)
    if not lines or not lines[-1].startswith("{"):
        sys.exit("benchmark binary exited %d without a result" % code)
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for metric in wanted:
        value = report["metrics"].get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for name in missing:
        log("metric not measured: " + name)
    print("counts: " + json.dumps(report["samples"]) +
          " answer_digest: " + report["answer_digest"])

    correct = code == 0 and report["failed"] == 0 and not missing
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
