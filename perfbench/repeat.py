#!/usr/bin/env python3
"""Repeat runner: N interleaved runs of perfbench/run.py, one seed each.

    python3 perfbench/repeat.py --runs 10 [--seed0 1] [--seconds 30]

Run i uses seed seed0+i on every workload of BENCHMARK.json, workloads
alternating, so host drift lands on all of them alike. Prints, per
workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are set against, plus the failed share of
operations of every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed0 + i
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            host = next((l for l in lines if l.startswith("# host:")), "")
            if proc.returncode != 0 or not lines:
                print(f"run {workload} seed {seed} failed (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            shares[workload].add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {host}", file=sys.stderr, flush=True)

    summary = {}
    for workload in workloads:
        print(f"\n== {workload}: {args.runs} runs, failed/attempted "
              f"{sorted(shares[workload])}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:<28} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
