#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at the smoke scale (seconds).

    python3 perfbench/selftest.py

1. Every workload runs every phase, measured and traced: exit 0,
   correct=true, every end-to-end (or per-layer) metric printed, and the
   only failed operations are the starvation probes.
2. With --perturb (one packet added to the batch report, one device
   dropped) the correctness check must fail: non-zero exit, correct=false.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
PROBES_PER_ROUND = 4  # kProbes in cpp/common.hpp


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, "--tiny", *extra],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {"0": {m["name"] for m in spec["end_to_end"]},
              "1": {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            code, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if code != 0 or not result or not result["correct"]:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            missing = wanted[trace] - set(result["metrics"])
            if missing:
                failures.append(f"{label}: metrics missing {sorted(missing)}")
            if result["failed"] == 0 or result["failed"] % PROBES_PER_ROUND:
                failures.append(f"{label}: {result['failed']} failed operations "
                                "are not whole rounds of probes")
            print(f"ok   {label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed (probes)")
        code, result = run(workload, "0", "--perturb")
        if code == 0 or (result and result["correct"]):
            failures.append(f"{workload} --perturb: exit {code}, result {result}")
        else:
            print(f"ok   {workload} --perturb: check failed as it must (exit {code})")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
