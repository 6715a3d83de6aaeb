#!/usr/bin/env python3
"""Builds and runs the end-to-end CepService benchmark for one workload.

    python3 bench_e2e/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

The C++ benchmark program (bench_e2e/*.cc) is compiled from this checkout's sources
in Release into $CARGO_TARGET_DIR/bench_e2e (default .bench_build), then
run once. Its standard output is passed through; the last line is the
JSON result. The exit code is the program's: 0 when every match verified,
1 on a correctness failure, 2 when the benchmark cannot build or run.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_mix", "keyed_sharded", "delta_durable")
# A run is stopped after this long; the build before it is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "bench_e2e"


def build(out):
    if not (ROOT / "src" / "api" / "cep_service.h").is_file():
        fail(f"cepjoin sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "cep_e2e_bench"])
    for step in steps:
        # Build output goes to stderr so stdout carries only the run.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = out / "cep_e2e_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-match", action="store_true",
                        help="self-test: corrupt one match; the run must "
                             "fail its correctness gate")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    work = out / f"work-{os.getpid()}"
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--spans", str(traces / f"{args.workload}.tsv")]
    if args.corrupt_match:
        command.append("--corrupt-match")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode < 0:
        fail(f"benchmark program killed by signal {-result.returncode}")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
