#!/usr/bin/env python3
"""Determinism test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [workload ...]

Run it from the root of a source checkout. For each workload (all three by
default) it runs the benchmark binary twice with one seed and once with
another, each for one second, and asserts that:
  * every run passes all of its checks;
  * the two same-seed runs report identical hh_f1, hh_are,
    sync_kib_per_epoch and decoded-table digest;
  * the other seed gives another decoded table.
Exits 0 when every assertion holds, 1 otherwise.
"""
import json
import subprocess
import sys

import run

SEED = 20211
OTHER_SEED = 20212
DETERMINISTIC = ("hh_f1", "hh_are", "sync_kib_per_epoch", "answer_digest")


def report(workload, seed):
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    result = json.loads(done.stdout.splitlines()[-1])
    return done.returncode, result


def check_workload(workload):
    failures = []
    runs = [report(workload, SEED), report(workload, SEED),
            report(workload, OTHER_SEED)]
    for code, result in runs:
        if code != 0 or result["failed"] != 0:
            failures.append("seed %d: exit %d, %d of %d checks failed" %
                            (result["seed"], code, result["failed"],
                             result["attempted"]))
    first, second, other = (result for _, result in runs)
    for key in DETERMINISTIC:
        if first[key] != second[key]:
            failures.append("%s differs between same-seed runs: %r vs %r" %
                            (key, first[key], second[key]))
    if first["answer_digest"] == other["answer_digest"]:
        failures.append("seeds %d and %d decode the same table" %
                        (SEED, OTHER_SEED))
    return failures


def main():
    workloads = sys.argv[1:] or [w["name"] for w in run.load_spec()["workloads"]]
    run.build()
    failed = False
    for workload in workloads:
        failures = check_workload(workload)
        for failure in failures:
            print("FAIL %s: %s" % (workload, failure))
        if not failures:
            print("ok   %s" % workload)
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
