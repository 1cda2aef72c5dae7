#!/usr/bin/env python3
"""Steadiness tool: run each workload repeatedly and summarise the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads tpcc-mix --runs 5 \
        --json set2.json --baseline set1.json

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and the
bound that spread suggests (three times the spread, rounded up to 0.05 and
capped at 0.25). For each workload it prints the share of failed
operations of every run; a run that exits non-zero or prints no result is
reported and left out, and so is one whose result line does not hold
exactly the metrics BENCHMARK.json declares for its kind, in their units.
With --baseline it also prints how far each median moved from that earlier
set's, as a share of the earlier median, and flags moves in the worse
direction larger than the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{tail}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_line(r, bench, trace):
    """Why a result line does not match BENCHMARK.json, or "" if it does:
    exactly the four keys, and every metric of the run's kind in its unit."""
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(r)}"
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        return "attempted is not a positive whole number"
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in r["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ: missing {missing}, extra {extra}, units {units}"
    return ""


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else math.inf
    return q1, q2, q3, spread


def suggested_bound(spread):
    if not math.isfinite(spread):
        return math.inf  # a median of 0: no share of it is a bound
    return min(0.25, math.ceil(spread * 3 / 0.05 - 1e-9) * 0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: every BENCHMARK.json workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the raw results here")
    ap.add_argument("--baseline", help="an earlier --json file to compare with")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    results = {}
    failed_runs = 0
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, seconds, args.trace)
            if r is None:
                failed_runs += 1
                continue
            problem = check_line(r, bench, args.trace)
            if problem:
                print(f"{w} seed {seed}: {problem}", file=sys.stderr)
                failed_runs += 1
                continue
            results[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
            if args.json:
                with open(args.json, "w") as f:
                    json.dump(results, f, indent=1)
    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)

    worse_than_bound = 0
    for w, runs in results.items():
        if len(runs) < 2:
            print(f"\n== {w}: fewer than two successful runs")
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n== {w}: {len(runs)} runs, all correct: {correct}, "
              f"failed share per run: {shares}")
        print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>7s} {'bound>=':>7s} {'moved':>7s}")
        names = runs[0]["metrics"].keys()
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, spread = summarise(vals)
            moved = ""
            if base and w in base:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in base[w])
                if old:
                    change = (med - old) / old
                    moved = f"{change:+.3f}"
                    m = declared.get(name, {})
                    worse = -change if m.get("better") == "higher" else change
                    if "bound" in m and worse > m["bound"]:
                        moved += " !"
                        worse_than_bound += 1
            print(f"{name:36s} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:7.3f} {suggested_bound(spread):7.2f} {moved:>7s}")
    if failed_runs:
        print(f"\n{failed_runs} run(s) failed; see standard error")
    return 1 if worse_than_bound or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
