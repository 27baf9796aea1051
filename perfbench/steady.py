#!/usr/bin/env python3
"""Steadiness report: run every workload K times on one build and show how
much each end-to-end metric moves from run to run.

    python3 perfbench/steady.py [--runs K] [--seconds S] [--workloads a,b]
                                [--seed-base N]

Run from the repository root. Workloads run in alternating order (forward
on odd rounds, reversed on even ones), each run with its own seed. For each
workload and metric it prints the median, the quartiles (as Python's
statistics.quantiles(n=4) gives them), the interquartile range and the
(max - min) spread as shares of the median, the shift of the second half's
median from the first half's (as a share of the first), and whether that
shift is within the metric's bound in BENCHMARK.json. Exits 1 when a
result is incorrect or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1000)
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    env = dict(os.environ, PERFBENCH_COMMIT=(
        git.stdout.strip() if git.returncode == 0 else "unknown"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    ok = True
    for k in range(a.runs):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = a.seed_base + k
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(a.seconds), "--trace", "0"],
                cwd=root, env=env, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write("%s seed %d failed:\n%s\n" % (w, seed, out.stderr))
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"] and res["failed"] == 0
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %s seed %d: %s" % (k, w, seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
                flush=True)
    print()
    print("%-10s %-16s %12s %12s %12s %8s %8s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med",
        "halves", ""))
    for w in workloads:
        for name, xs in values[w].items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            h = len(xs) // 2
            m1, m2 = statistics.median(xs[:h]), statistics.median(xs[h:])
            # second half's median relative to the first's
            shift = (m2 - m1) / m1 if m1 else 0.0
            agree = abs(shift) <= bounds.get(name, 0) if m1 else m1 == m2
            print("%-10s %-16s %12.6g %12.6g %12.6g %8.4f %8.4f %+8.4f %6s" % (
                w, name, med, q1, q3, (q3 - q1) / med if med else 0,
                (max(xs) - min(xs)) / med if med else 0, shift,
                "ok" if agree else "DIFF"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
