#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bzip2 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

The library (src/) and the benchmark are built with CMake into
.bench_build/perfbench on first use. The benchmark's last stdout line is
its JSON result; build output goes to stderr. --backend and --workers pass
through for the README's reference runs. --trace 1 also writes the run's
spans to .bench_build/traces/<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# One run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def check_metrics(out, traced):
    """Exits nonzero unless the result line prints the metrics BENCHMARK.json
    declares for this mode, in its order and with its units."""
    with open(SPEC) as f:
        spec = json.load(f)
    want = [(m["name"], m["unit"])
            for m in spec["per_layer" if traced else "end_to_end"]]
    lines = out.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    have = [(name, m["unit"]) for name, m in got.items()]
    if have != want:
        sys.exit("perfbench: printed metrics %s differ from BENCHMARK.json %s"
                 % (have, want))


def run(cmd, traced=None):
    """Runs cmd with stdout relayed; returns its exit code. With `traced`
    set, a successful run's metrics are checked against BENCHMARK.json."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode == 0 and traced is not None:
        check_metrics(out, traced)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["bzip2", "stream"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--backend")
    ap.add_argument("--workers", type=int)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return run([build("perfbench_selftest")])
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-%d.jsonl" % (args.workload, args.seed))]
    if args.backend:
        cmd += ["--backend", args.backend]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    return run(cmd, traced=args.trace == "1")


if __name__ == "__main__":
    sys.exit(main())
