#!/usr/bin/env python3
"""Build and run the seeded benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the repository's
libraries plus the benchmark) under the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Later calls rebuild only what changed. The
benchmark binary prints progress lines and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. A traced run
(--trace 1) also writes its spans to <build>/traces/<workload>-seed<N>.tsv.

The benchmark measures the library's default VCODE engine, so it refuses
to run while ASH_BACKEND or ASH_USE_CODE_CACHE is set.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rpc_small", "tcp_ash_bulk", "http_c10k_loss")
KNOBS = ("ASH_BACKEND", "ASH_USE_CODE_CACHE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configure once, then build; exits without a result on failure."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j4"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    """Run to completion (killed at the timeout); stream its stdout."""
    try:
        p = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    for knob in KNOBS:
        if knob in os.environ:
            fail("refusing to run with %s set; the benchmark measures the "
                 "library default engine" % knob, 2)

    bdir = build_dir()
    build(bdir)
    if args.self_test:
        return run([os.path.join(bdir, "perfbench_test")])

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, "%s-seed%d.tsv" % (args.workload,
                                                      args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
