#!/usr/bin/env python3
"""End-to-end benchmark of the aggspes engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fm-ahf|join-ahj|agg-sliding \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or
.bench_build/ in the checkout, runs the span self-time self-test, then the
benchmark binary. --trace 0 measures the end-to-end metrics, --trace 1 the
per-layer ones. Prints a human-readable report and a provenance line, and
as its last line one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero when the build fails, the self-test fails or
any output differs from the single-threaded reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fm-ahf", "join-ahj", "agg-sliding")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "graph.hpp")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    out = os.path.join(base, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    return out


def compiler(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    ver = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True, timeout=30, check=False)
                    return ver.stdout.splitlines()[0] if ver.stdout else cxx
    except OSError:
        pass
    return "unknown"


def revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=False)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    return "none (not a git checkout)"


def src_digest():
    """sha256 over src/ paths and contents: identifies the measured code
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build()
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60,
                              check=False)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("span self-time self-test failed")

    try:
        proc = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark's last line is not JSON (exit %d)" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))

    load_line = next((l for l in lines if l.startswith("variants:")), "")
    provenance = {
        "revision": revision(),
        "src_digest": src_digest(),
        "build_type": BUILD_TYPE,
        "compiler": compiler(out),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_rates": load_line.split(";", 1)[-1].strip(),
    }
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
