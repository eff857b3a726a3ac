#!/usr/bin/env python3
"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run it from the repository root. Runs every workload named in
BENCHMARK.json at small size for one second, untraced and traced, and
asserts that each run prints every metric BENCHMARK.json names for that
mode, by name and with its unit, both in the log and in the result
JSON, and that the output check passed. Exits non-zero on the first
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        sys.exit("selfcheck: %s exited with %d" % (where, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("selfcheck: %s: result keys %s" % (where, sorted(result)))
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        sys.exit("selfcheck: %s: output check failed: %s" %
                 (where, {k: result[k] for k in RESULT_KEYS - {"metrics"}}))
    log = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3:
            log[fields[0]] = fields[2]
    got = result["metrics"]
    if set(got) != set(expected):
        sys.exit("selfcheck: %s: metrics %s, expected %s" %
                 (where, sorted(got), sorted(expected)))
    for name, unit in expected.items():
        if got[name]["unit"] != unit or log.get(name) != unit:
            sys.exit("selfcheck: %s: %s not printed with unit %s" %
                     (where, name, unit))
    print("selfcheck: %-24s ok (%d metrics, %d runs)" %
          (where, len(got), result["attempted"]))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace, expected in modes.items():
            check_run(w["name"], trace, expected)


if __name__ == "__main__":
    main()
