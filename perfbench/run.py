#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
hslb_perfbench (perfbench/CMakeLists.txt compiles the library sources under
src/) into .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  The result's metric names and units are checked against
BENCHMARK.json before it is printed.

Workloads: pipeline-1deg, solve-mix, svc-mixed, rebal-drift (see
perfbench/README.md).  --update-golden rewrites the workload's entries in
perfbench/golden.txt.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hslb_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "include", "hslb")):
        print("perfbench: no library sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(ROOT, ".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                return fail("build failed: " + " ".join(step))
    return 0


def check_result(line, trace):
    """The result line must be the contract's JSON with BENCHMARK.json's
    metrics for this kind of run."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(units.items()))
    return None


def stop_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills its child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()

    status = build()
    if status != 0:
        return status

    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--golden", os.path.join(HERE, "golden.txt")]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    if args.update_golden:
        command.append("--update-golden")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        return fail("hslb_perfbench exited with %d" % done.returncode)
    problem = check_result(lines[-1], args.trace == "1")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem is not None:
        return fail(problem)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
