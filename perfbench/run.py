#!/usr/bin/env python3
"""Build and run the COD cost-ledger benchmark.

    python3 perfbench/run.py --workload <e10_exam|rack_udp|reliable_lossy> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench with CMake;
later runs only rebuild what changed. Build output goes to standard error.
The benchmark's own report goes to standard output, and its last line is
the JSON result. The exit code is non-zero when the build fails, a
correctness check fails or the run breaks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure (once) and build the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the percentile checks and the negative "
                             "controls of every correctness check")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A run plans --seconds of episodes and starts no new one after twice
    # that; the rest covers its last episode, the set-up probes and the
    # layer probes.
    timeout = 60.0 if args.self_test else 3.0 * args.seconds + 60.0
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %g s\n" % timeout)
        return 2
    if args.self_test:
        sys.stdout.write(out)
        return proc.returncode

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        # A broken run prints its report but never a result line.
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 2
    sys.stdout.write(out)
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
