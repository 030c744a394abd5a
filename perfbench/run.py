#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the an5d core library from
src/ plus the benchmark program) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset, then runs one
workload in a single process. The program's last stdout line is the result
object; this script checks that it names exactly the metrics BENCHMARK.json
lists for the requested mode, with their units, before passing it on.
Exits non-zero, printing no result, when the build, the run or that check
fails. Traces and per-run records land in <build dir>/perfbench-out.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
BUILD_JOBS = 4


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """Runs command in its own process group and returns (code, stdout).

    On timeout the whole group (compilers the benchmark spawned included)
    is killed and reaped before the run is reported as failed.
    """
    try:
        proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    except OSError as err:
        fail("cannot run %s: %s" % (command[0], err))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (" ".join(command), timeout))
    return proc.returncode, out


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(BUILD_JOBS, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "an5d_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=log,
                          stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed (%s); full log in %s" % (" ".join(step),
                                                            log_path))
    return os.path.join(build_dir, "an5d_perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["run_native", "tune_cold", "tune_warm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", out_dir]
    code, out = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("workload %s exited with code %d" % (args.workload, code))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("reported metrics differ from BENCHMARK.json: missing %s, extra %s,"
             " unit mismatches %s" % (
                 sorted(set(expected) - set(got)),
                 sorted(set(got) - set(expected)),
                 sorted(n for n in set(got) & set(expected)
                        if got[n] != expected[n])))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
