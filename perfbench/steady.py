#!/usr/bin/env python3
"""Steadiness check: run one workload N times and compare the spread of
each end-to-end metric with the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload reduce [--runs 10] [--seed 1]
                                [--seconds S] [--save a.json] [--against a.json]

Run from the repository root. Run i uses seed --seed + i. For each metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound: "steady" below a third of the
bound, "ok" below the bound, "NOISY" above it. --save writes the values;
--against compares this set's medians with a saved set and flags a median
that worsened by more than the bound. Exits 1 when any run fails or any
check is NOISY / WORSE.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"run with seed {seed} reported correct=false")
    return result


def worse_by(metric, before, after):
    """Share by which `after` is worse than `before` (negative = better)."""
    if metric["better"] == "lower":
        return (after - before) / before
    return (before - after) / before


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = attempted = 0
    for i in range(a.runs):
        r = one_run(a.workload, a.seed + i, seconds)
        attempted += r["attempted"]
        failed += r["failed"]
        for name in values:
            values[name].append(r["metrics"][name]["value"])
        print(f"run {i + 1}/{a.runs} seed {a.seed + i}: " +
              " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    print(f"{a.workload}: {attempted} jobs attempted, {failed} failed")

    previous = None
    if a.against:
        with open(a.against) as f:
            previous = json.load(f)
    bad = False
    print(f"{'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        if spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "ok"
        else:
            verdict, bad = "NOISY", True
        if previous is not None:
            before = statistics.median(previous[m["name"]])
            w = worse_by(m, before, statistics.median(v))
            verdict += f", {w:+.1%} vs saved"
            if w > m["bound"]:
                verdict += " WORSE"
                bad = True
        print(f"{m['name']:<14} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{spread:>7.1%} {m['bound']:>6.2f}  {verdict}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
