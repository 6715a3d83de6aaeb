#!/usr/bin/env python3
"""A/B comparison of two revisions on the end-to-end benchmark.

    python3 tools/bench_ab.py --a HEAD~1 --b HEAD --workload delta_durable
    python3 tools/bench_ab.py --a main --b . --pairs 10 --seconds 20

Each side is a git revision, exported with `git archive` into a
temporary directory, or a directory path used as it is (`.` is the
working tree). Each side builds with its own CARGO_TARGET_DIR, so the
two builds never share objects. For every workload the tool runs
`bench_e2e/run.py` on both sides in pairs, alternating which side goes
first (AB, BA, AB, ...), one run at a time; pair i uses seed
--seed-base + i on both sides.

For each end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side, the median of the per-pair B/A ratios with a
bootstrap 95% interval, how many pairs B won (ties count for neither
side), and a verdict:

  gain        B won at least 9 of 10 pairs and the medians differ, in
              B's favour, by more than A's interquartile range
  worse       B's median is worse than A's by more than the metric's bound
  within      neither

Exit code: 0 when every run verified its matches, 1 when a run failed
its correctness gate or could not run.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# ---- statistics (pure; unit-tested in bench_ab_test.py) -----------------

def pair_orders(n):
    """Which side runs first in each of n pairs: AB, BA, AB, ..."""
    return [("A", "B") if i % 2 == 0 else ("B", "A") for i in range(n)]


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default) of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def bootstrap_interval(values, iterations=2000, confidence=0.95, seed=1):
    """Percentile bootstrap interval of the median of `values`."""
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(
        median([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(iterations))
    tail = (1.0 - confidence) / 2.0
    return quantile(medians, tail), quantile(medians, 1.0 - tail)


def summarize(a, b, better, bound):
    """Compares paired runs a[i], b[i] of one metric.

    `better` is "higher" or "lower"; `bound` the relative worsening the
    benchmark tolerates. Pairs where either side is zero get no ratio.
    """
    if len(a) != len(b) or not a:
        raise ValueError("need the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    ratios = [y / x for x, y in zip(a, b) if x != 0]
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    med_a, med_b = median(a), median(b)
    iqr_a = quantile(a, 0.75) - quantile(a, 0.25)
    gain = sign * (med_b - med_a)
    if wins * 10 >= 9 * len(a) and gain > iqr_a:
        verdict = "gain"
    elif med_a != 0 and -gain / abs(med_a) > bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {
        "a_median": med_a,
        "a_q1": quantile(a, 0.25),
        "a_q3": quantile(a, 0.75),
        "b_median": med_b,
        "b_q1": quantile(b, 0.25),
        "b_q3": quantile(b, 0.75),
        "ratio_median": median(ratios) if ratios else None,
        "ratio_ci": bootstrap_interval(ratios) if ratios else None,
        "b_wins": wins,
        "a_wins": losses,
        "pairs": len(a),
        "verdict": verdict,
    }


def last_json_line(text):
    """The benchmark's result: the last line of its output that is JSON."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the benchmark output")


# ---- checkouts, builds and runs ----------------------------------------

def checkout(rev, dest):
    """A directory holding `rev`: the path itself, or a git export."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest


def run_once(tree, build, workload, seed, seconds):
    command = [sys.executable, str(tree / "bench_e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    result = subprocess.run(command, cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{result.returncode}:\n{result.stderr[-2000:]}")
    parsed = last_json_line(result.stdout)
    if not parsed.get("correct", False):
        raise RuntimeError(f"{workload} seed {seed} in {tree}: incorrect")
    return {name: m["value"] for name, m in parsed["metrics"].items()}


def format_row(name, unit, s):
    ratio = "n/a"
    if s["ratio_median"] is not None:
        lo, hi = s["ratio_ci"]
        ratio = f"{s['ratio_median']:.3f} [{lo:.3f}, {hi:.3f}]"
    return (f"  {name:<22} {s['a_median']:>11.4g} [{s['a_q1']:.4g}, "
            f"{s['a_q3']:.4g}]  {s['b_median']:>11.4g} [{s['b_q1']:.4g}, "
            f"{s['b_q3']:.4g}]  {unit:<9} {ratio:<24} "
            f"{s['b_wins']:>2}/{s['pairs']:<2} {s['verdict']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="baseline revision/dir")
    parser.add_argument("--b", required=True, help="candidate revision/dir")
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--json", help="write every run and summary here")
    parser.add_argument("--work-dir", help="keep checkouts and builds here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    work = Path(args.work_dir or tempfile.mkdtemp(prefix="bench_ab_"))
    keep = args.work_dir is not None
    trees = {"A": checkout(args.a, work / "A"),
             "B": checkout(args.b, work / "B")}
    builds = {side: work / f"{side}-build" for side in trees}

    report = {"a": args.a, "b": args.b, "seconds": seconds, "workloads": {}}
    status = 0
    try:
        for workload in workloads:
            runs = {"A": [], "B": []}
            for i, order in enumerate(pair_orders(args.pairs)):
                seed = args.seed_base + i
                for side in order:
                    runs[side].append(run_once(trees[side], builds[side],
                                               workload, seed, seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            print(f"\n{workload}: {args.pairs} pairs, {seconds} s runs, "
                  f"A={args.a} B={args.b}")
            print(f"  {'metric':<22} {'A median [q1, q3]':>28}  "
                  f"{'B median [q1, q3]':>28}  {'unit':<9} "
                  f"{'B/A median [95% CI]':<24} B won  verdict")
            summaries = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a = [r[name] for r in runs["A"] if name in r]
                b = [r[name] for r in runs["B"] if name in r]
                if len(a) != args.pairs or len(b) != args.pairs:
                    continue
                s = summarize(a, b, metric["better"], metric["bound"])
                summaries[name] = s
                print(format_row(name, metric["unit"], s))
            report["workloads"][workload] = {"runs": runs,
                                             "summary": summaries}
    except RuntimeError as error:
        print(f"bench_ab: {error}", file=sys.stderr)
        status = 1
    finally:
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=1))
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
