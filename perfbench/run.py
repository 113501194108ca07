#!/usr/bin/env python3
"""Build the motif benchmark from source, then run it.

    python3 perfbench/run.py --workload msa --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. With --trace 1 the spans are
written to <build dir>/perfbench-trace-<workload>-<seed>.json. --selftest
builds and runs the tests of the benchmark's own arithmetic.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run is cut off after this long; a 40 s run takes about a minute.
RUN_TIMEOUT_S = 170


class Stopped(Exception):
    pass


def on_signal(signum, _frame):
    raise Stopped(signum)


def run_child(cmd, stdout=None, timeout=None):
    """Runs `cmd` to completion and returns its exit code. If this script
    is told to stop, or `timeout` passes, the child is killed and waited
    for first, so no process outlives the run."""
    child = subprocess.Popen(cmd, stdout=stdout)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {cmd[0]} exceeded {timeout} s")
    except Stopped as e:
        sys.exit(128 + e.args[0])
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(build_dir, target):
    def step(cmd):
        if run_child(cmd, stdout=sys.stderr) != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build_dir, "--target", target,
          "-j", str(min(4, os.cpu_count() or 1))])


def option(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    args = sys.argv[1:]
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args == ["--selftest"]:
        build(build_dir, "perfbench_test")
        return run_child([os.path.join(build_dir, "perfbench_test")])
    build(build_dir, "perfbench")
    if option(args, "--trace") == "1":
        trace = "perfbench-trace-{}-{}.json".format(option(args, "--workload"),
                                                   option(args, "--seed"))
        args += ["--trace-out", os.path.join(build_dir, trace)]
    return run_child([os.path.join(build_dir, "perfbench")] + args,
                     timeout=RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
