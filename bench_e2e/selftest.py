#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 bench_e2e/selftest.py [--workloads paper_mix,keyed_sharded,delta_durable]

1. Two traced runs of one seed report identical exact counts.
2. A run with one deliberately corrupted match fails its correctness
   gate: it exits 1 and reports "correct": false.

Exits 0 when both hold for every workload named.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_COUNTS = (
    "engine.instances_created",
    "engine.predicate_evals",
    "engine.matches",
    "engine.retractions",
    "optimizer.plans",
    "parallel.buffered_matches",
    "durable.snapshot_bytes_first",
    "durable.snapshot_bytes_last",
)


def run(workload, seed, trace, extra=()):
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               *extra]
    result = subprocess.run(command, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return result.returncode, None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default="paper_mix,keyed_sharded,delta_durable")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first_rc, first = run(workload, args.seed, 1)
        second_rc, second = run(workload, args.seed, 1)
        if first is None or second is None or first_rc or second_rc:
            print(f"FAIL {workload}: traced run failed "
                  f"(exit {first_rc}, {second_rc})")
            ok = False
        else:
            for name in EXACT_COUNTS:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                status = "ok" if a == b else "FAIL"
                ok &= a == b
                print(f"{status} {workload} {name}: {a!r} vs {b!r}")
        rc, result = run(workload, args.seed, 0, ("--corrupt-match",))
        caught = rc == 1 and result is not None and not result["correct"]
        ok &= caught
        print(f"{'ok' if caught else 'FAIL'} {workload} corrupted match "
              f"{'fails' if caught else 'does not fail'} the digest gate "
              f"(exit {rc})")
    print("selftest passed" if ok else "selftest FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
