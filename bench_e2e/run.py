#!/usr/bin/env python3
"""Build and run the end-to-end inference-route benchmark.

    python3 bench_e2e/run.py --workload vgg_infer --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds the
OpenEI library and the load generator from source into the directory named
by CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The benchmark's own stdout is passed through, so the last line is the JSON
result.  Build failures exit non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "bench_e2e")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["vgg_infer", "mlp_fleet", "model_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Concurrency comes from the connections: a per-request tensor thread pool
    # on top oversubscribes a small host and turns into stalls, so the pool
    # is pinned to one lane (the value is printed with the host provenance).
    env = dict(os.environ, OPENEI_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
