#!/usr/bin/env python3
"""Benchmark entry point for the SPI stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload burst_small --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build, runs the
self-test of the benchmark's own instruments, then runs spi_perfbench with
the workload's fixed settings from perfbench/workloads.json, pinned to one
CPU: on a shared virtual machine, stalls of CPUs other than the one a
message is on dominated the run-to-run spread when the stack could spread
over all CPUs. The binary's last stdout line is the result object; it is
printed last here as well.
Each result is also appended, with its box metadata line, to
.bench_out/results.jsonl; traced runs write their spans next to it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SPI sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "spi_perfbench", "perfbench_selftest"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(sorted(workloads))}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    build(build_dir)

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-test failed")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "spi_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in workloads[args.workload].items():
        command += [f"--{key}", str(value)]
    if args.trace:
        spans = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        command += ["--spans-out", spans]

    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=170)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"spi_perfbench exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        fail("spi_perfbench printed no result object")

    meta = next((json.loads(line)["meta"] for line in lines
                 if line.startswith('{"meta"')), {})
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
