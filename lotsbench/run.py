#!/usr/bin/env python3
"""Builds the LOTS benchmark from source and runs one workload.

    python3 lotsbench/run.py --workload kv_uniform --seed 1 --seconds 30 --trace 0
    python3 lotsbench/run.py --selftest

Run it from the repository root. The build goes to lotsbench/ under
$CARGO_TARGET_DIR (default .bench_build), the disk stores and span files
to lotsbench-out/ beside it. An untraced run first starts SETUP_RUNS
processes that only set up; setup_s is the median of their set-up times
and the measured run's. The last line of standard output is the result
object; the line before it carries the host fingerprint and the sample
counts. See lotsbench/README.md for the metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_uniform", "kv_zipf", "sor", "ooc_sweep")
# All processes of one run (set-ups and the measured one) must end
# within this many seconds after the build.
RUN_TIMEOUT_S = 170
SETUP_RUNS = 6


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds lotsbench; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "api.hpp")):
        log("lotsbench: the LOTS sources (src/) are not in this checkout")
        return None
    bdir = os.path.join(build_root(), "lotsbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("lotsbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "lotsbench")


def run_binary(binary, workload, seed, seconds, trace, deadline, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_root(), "lotsbench-out")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"lotsbench: {workload} did not finish within {RUN_TIMEOUT_S} s of the build")
        return 1, []
    finally:
        shutil.rmtree(os.path.join(work, "disk"), ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


# Per-op counts the self-test requires to repeat for a fixed seed, with
# the relative tolerance allowed where thread interleaving moves them.
REPEATABLE = {
    "kv_uniform": ["locks.acquires_per_op", "net.msgs_per_op", "coherence.diff_payload_bytes_per_op"],
    "kv_zipf": ["locks.acquires_per_op", "net.msgs_per_op", "coherence.diff_payload_bytes_per_op"],
    "sor": ["net.msgs_per_op", "fetch.object_fetches_per_iter", "barrier.bytes_per_barrier",
            "storage.swap_ins_per_op"],
    "ooc_sweep": ["storage.swap_ins_per_op", "storage.swap_in_bytes_per_op",
                  "storage.swap_out_bytes_per_op", "mem.evictions_per_op", "locks.acquires_per_op"],
}
TOLERANCE = 0.001


def selftest(binary):
    """Tiny runs of every workload: metrics named with units, checks pass,
    and per-op counts repeat for a fixed seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True

    def result(workload, trace):
        code, lines = run_binary(binary, workload, 7, 1, trace,
                                 time.monotonic() + RUN_TIMEOUT_S, ["--tiny", "--rounds", "4"])
        res = json.loads(lines[-1]) if lines else {}
        if code != 0 or not res.get("correct") or res.get("failed") != 0:
            log(f"FAIL {workload} trace={trace}: exit {code}, result {res}")
            return None
        want = spec["per_layer" if trace else "end_to_end"]
        for m in want:
            got = res["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                log(f"FAIL {workload}: metric {m['name']} missing or not in {m['unit']}")
                return None
        return res["metrics"]

    for workload in WORKLOADS:
        runs = [result(workload, 0), result(workload, 1), result(workload, 1)]
        if None in runs:
            ok = False
            continue
        for name in REPEATABLE[workload]:
            a, b = runs[1][name]["value"], runs[2][name]["value"]
            if abs(a - b) > TOLERANCE * max(abs(a), abs(b)):
                log(f"FAIL {workload}: {name} did not repeat: {a} vs {b}")
                ok = False
        log(f"{'ok' if ok else 'FAIL'} {workload}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        code, lines = run_binary(binary, args.workload, args.seed, args.seconds, 0, deadline,
                                 ["--setup-only"])
        if code != 0 or not lines:
            log(f"lotsbench: a set-up of {args.workload} failed (exit {code})")
            return code or 1
        setups.append(json.loads(lines[-1])["setup_s"])
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, deadline)
    if code != 0 or not lines:
        for line in lines:
            print(line)
        return code or 1
    res = json.loads(lines[-1])
    if setups:
        setups.append(res["metrics"]["setup_s"]["value"])
        log("lotsbench: set-up times (s):", setups)
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
