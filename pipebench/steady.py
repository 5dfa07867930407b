#!/usr/bin/env python3
"""Steadiness check: do repeated runs of the same build agree within the
benchmark's own bounds?

    python3 pipebench/steady.py

Run from the repository root. It makes two sets of ten runs per workload,
each run with its own seed, and for every end-to-end metric in
BENCHMARK.json reports each set's median and spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median. The check fails when a spread exceeds the metric's bound, or
when the two sets' medians differ by more than the bound in either
direction. Spreads above a third of the bound are flagged as "tight".
Exit code 1 on any failure.
"""

import json
import statistics
import subprocess
import sys
import time


SETS = 2
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    command = [sys.executable, "pipebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    begin = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(command)} "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: {' '.join(command)}")
    return result["metrics"], time.time() - begin


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    values = {}  # (set, workload) -> metric -> [values]
    for s in range(SETS):
        for workload in workloads:
            got = values.setdefault((s, workload), {})
            for r in range(RUNS):
                seed = SEED_BASE + 100 * s + r
                result, wall = run_once(workload, seed, bench["run_seconds"])
                for m in metrics:
                    got.setdefault(m["name"], []).append(
                        result[m["name"]]["value"])
                print(f"set {s} {workload} seed {seed}: {wall:.1f} s",
                      file=sys.stderr)

    failures = 0
    print(f"{'workload':<13} {'metric':<24} {'set':>3} {'median':>14} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                median, width = spread(values[(s, workload)][name])
                medians.append(median)
                verdict = "ok"
                if width > bound:
                    verdict = "FAIL spread"
                    failures += 1
                elif width > bound / 3:
                    verdict = "tight"
                print(f"{workload:<13} {name:<24} {s:>3} {median:>14.6g} "
                      f"{width:>7.3f} {bound:>6.2f}  {verdict}")
            drift = (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if abs(drift) <= bound else "FAIL drift"
            failures += verdict != "ok"
            print(f"{workload:<13} {name:<24} {'1v0':>3} "
                  f"{'':>14} {drift:>7.3f} {bound:>6.2f}  {verdict}")
    print(f"{failures} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
