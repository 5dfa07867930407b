#!/usr/bin/env python3
"""Runs one workload of the smart-meter pipeline benchmark.

    python3 pipebench/run.py --workload daily_upload --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the repository's `smeter` daemons and
the `pipebench` binary from source (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs it with the syscall shim preloaded. Its last
stdout line is the JSON result; everything else goes to stderr. See
pipebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("daily_upload", "backfill", "live_query")


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            fail(f"{required} not found: run from the root of an smeter "
                 f"source tree")
    configure = ["cmake", "-S", os.path.join(root, "pipebench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure,
             ["cmake", "--build", build_dir, "-j", jobs, "--target",
              "pipebench", "smeter_cli", "pipebench_shim"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(root, build_dir)

    smeter = os.path.join(build_dir, "smeter_tools", "smeter")
    binary = os.path.join(build_dir, "pipebench")
    shim = os.path.join(build_dir, "libpipebench_shim.so")
    for path in (smeter, binary, shim):
        if not os.path.isfile(path):
            fail(f"build did not produce {path}")
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    env = dict(os.environ, LD_PRELOAD=shim)
    env.pop("PIPEBENCH_SHIM_OUT", None)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--smeter", smeter, "--work", work]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"pipebench exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
