#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

Run from the repository root:

    python3 bench_e2e/run.py --workload dp-heavy --seed 1 --seconds 20 --trace 0

The build lives in $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e,
relative to the current directory). Build output goes to stderr; the
benchmark's report goes to stdout and its last line is the JSON result.
--trace 1 runs the traced mode, which reports the per-layer metrics.
The exit code is the benchmark's (0 only when every answer was correct), or
2 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Batch workloads run the DP on the CLI's default thread count, pinned to 4
# so the measurement does not depend on the host's core count.
DP_THREADS = "4"


def build(build_dir):
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def run(command):
        return subprocess.run(command, stdout=sys.stderr, env=env).returncode

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry from scratch
            return False
    return run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                "--parallel", "4"]) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "bench_e2e")
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "bench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        command.append("--traced")
    sys.stdout.flush()
    env = dict(os.environ, OMP_NUM_THREADS=DP_THREADS)
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
