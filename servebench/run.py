#!/usr/bin/env python3
"""Builds and runs one gyo_serve end-to-end benchmark run.

    python3 servebench/run.py --workload path_reduce --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds the
library, the gyo_serve daemon and the load driver (Release) under
.bench_build/servebench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Workloads: path_reduce, ring_join, hot_repeat, plan_churn (see NOTES.md).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
DRIVER = os.path.join(BUILD, "servebench_driver")
SERVER = os.path.join(BUILD, "gyo", "examples", "gyo_serve")
SPANS = os.path.join(BUILD, "spans")
# A run must end well inside three minutes; the build is not part of it.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no repository sources beside the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "gyo_serve", "servebench_driver"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"servebench: build failed: {err}")
    os.makedirs(SPANS, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--spans-dir", SPANS]
    # Its own session, so a timeout can stop the driver and its server.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("servebench: run timed out")


if __name__ == "__main__":
    sys.exit(main())
