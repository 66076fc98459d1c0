#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload fleet_hostile --seed 1 --seconds 20 --trace 0

The program (perfbench/*.cc) and the repository's libraries (src/) are
compiled with CMake into .bench_build/perfbench on the first run; later runs
only rebuild what changed. Everything the benchmark writes -- build tree,
compiler temporaries, the daemon's state directory, trace files -- stays
under .bench_build/ in the checkout.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
.bench_build/perfbench-build.log. Exit status is non-zero, with no result
line, when the sources are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
WORK_DIR = os.path.join(BENCH_DIR, "work")
BUILD_LOG = os.path.join(BENCH_DIR, "perfbench-build.log")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    return code


def commit_id():
    """The checkout's commit when it is a git work tree of its own."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # Configure once; later builds re-run CMake only if its inputs changed.
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_hostile", "live_loopback", "daemon_api"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no program sources in this checkout (src/CMakeLists.txt is missing)", 2)

    tmp_dir = os.path.join(BENCH_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir, PERFBENCH_COMMIT=commit_id())
    if not build(env):
        with open(BUILD_LOG) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        return fail("build failed; full log in " + BUILD_LOG, 3)

    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--work-dir", WORK_DIR]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S, 4)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
