#!/usr/bin/env python3
"""Builds and runs the StoryPivot end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect_batch|serve_live \
        --seed N --seconds S --trace 0|1

The first run configures and builds the benchmark (a CMake package of its
own over ../src) into .bench_build/; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the result JSON
the benchmark prints. Scratch data lives under .bench_run/ and is removed
when the run ends; a traced run leaves its spans in .bench_out/. The exit
code is non-zero when the build fails, a correctness gate fails, or the run
does not finish in time. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("detect_batch", "serve_live")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(command, timeout, stdout=None):
    """Runs `command` in its own process group and waits for it. On timeout
    or SIGTERM the whole group (compilers included) is killed and reaped."""
    env = dict(os.environ, TMPDIR=TMP_DIR)  # Compiler temporaries stay here.
    with subprocess.Popen(command, stdout=stdout, env=env,
                          start_new_session=True) as process:
        try:
            return process.wait(timeout=timeout)
        except BaseException:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # The group already exited.
            process.wait()
            raise


def build():
    """Configures (once) and builds the benchmark, then runs its self-test.
    Raises on any failure."""
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    # The benchmark's own arithmetic must be right before it reports.
    steps.append([os.path.join(BUILD_DIR, "perfbench_selftest"),
                  "--gtest_brief=1"])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise RuntimeError(f"failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # SIGTERM unwinds through run(), which stops the running step.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    name = f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir = os.path.join(RUN_DIR, name)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(OUT_DIR, f"trace-{name}.json")]
    sys.stdout.flush()
    try:
        return run(command, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
