#!/usr/bin/env python3
"""End-to-end benchmark of iotscope: batch, follow, serve and compaction.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|skewed --seed N \
        --seconds S --trace 0|1 [--tiny] [--perturb]

Builds perfbench/ (which compiles the iotscope libraries from src/),
generates the workload's dataset from the seed (cached under
.bench_cache/, never timed), runs the measured or traced mode, and prints
the metrics with, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --tiny is the smoke scale;
--perturb corrupts the batch report so the correctness check must fail.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
CACHE = os.path.join(ROOT, ".bench_cache")
BUILD_TYPE = "RelWithDebInfo"
KEEP_DATASETS = 4  # generated datasets kept in the cache, newest first
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def steal_seconds():
    """Cumulative steal time of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def source_revision():
    """The git commit, or a digest of src/ when the tree is no git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    return "tree-sha1:" + digest.hexdigest()[:12]


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(step)}")
                sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def dataset(binary, workload, seed, tiny):
    """The generated dataset for (workload, seed, scale), made if absent.
    Keyed by the binary too, so a changed generator never reuses a week."""
    with open(binary, "rb") as f:
        generator = hashlib.sha1(f.read()).hexdigest()[:10]
    name = f"{workload}-s{seed}-{generator}" + ("-tiny" if tiny else "")
    data_root = os.path.join(CACHE, "data")
    path = os.path.join(data_root, name)
    if os.path.exists(os.path.join(path, "synth_facts.txt")):
        os.utime(path)
        return path
    os.makedirs(data_root, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed), "--out", tmp]
    if tiny:
        cmd.append("--tiny")
    if subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode:
        shutil.rmtree(tmp, ignore_errors=True)
        log("dataset generation failed")
        sys.exit(1)
    # Write the dataset back now, not during the measured phases.
    for dirpath, _, filenames in os.walk(tmp):
        for name in filenames:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    # Keep the cache bounded: drop the least recently used datasets.
    entries = sorted((os.path.join(data_root, e) for e in os.listdir(data_root)),
                     key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_DATASETS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def run_child(cmd):
    """Runs one perfbench process; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def child_value(cmd):
    """The value a child run prints last ("name value"), or None if it
    fails."""
    code, lines = run_child(cmd)
    if code != 0 or not lines:
        log(f"{' '.join(cmd[1:2])} run failed (exit {code})")
        return None
    return float(lines[-1].split()[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper", "skewed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke scale: every phase in seconds")
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: corrupt the batch report")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no iotscope sources under {ROOT}/src; run from a full checkout")
        return 2

    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(CACHE, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build()
    data = dataset(binary, args.workload, args.seed, args.tiny)
    work = os.path.join(CACHE, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steal_before = steal_seconds()
    started = time.monotonic()
    try:
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--data", data, "--work", work, "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(
                CACHE, "traces", f"{args.workload}-s{args.seed}.json")]
        if args.tiny:
            cmd.append("--tiny")
        if args.perturb:
            cmd.append("--perturb")
        code, lines = run_child(cmd)
        if not lines:
            log(f"perfbench run exited {code} without a result")
            return code or 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        if code == 0 and result["correct"] and args.trace == "0":
            # Peak memory of the program's own work, in a process of its
            # own so the benchmark's tallies and held inputs are not counted.
            rss = [binary, "rss", "--workload", args.workload, "--seed",
                   str(args.seed), "--data", data, "--work", work]
            peak = child_value(rss + (["--tiny"] if args.tiny else []))
            if peak is None:
                result["correct"], code = False, 1
            else:
                result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
                print(f"  {'peak_rss_mb':<28} {peak:16.6f} MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# host: nproc={os.cpu_count()} steal_s={steal_seconds() - steal_before:.2f} "
          f"wall_s={time.monotonic() - started:.1f} build={BUILD_TYPE} "
          f"commit={source_revision()} workload={args.workload} seed={args.seed}")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
