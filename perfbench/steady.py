#!/usr/bin/env python3
"""Steadiness check of the XSP benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads zoo_profile,fleet_ingest] [--seed0 1]

Runs each workload --runs times through perfbench/run.py, each run with
the next seed, and prints for every end-to-end metric its median,
quartiles and spread, the spread being (q3 - q1) / median with quartiles
from statistics.quantiles(n=4). Every spread, setup_s's too, must stay
below a third of the metric's bound in BENCHMARK.json.
Exits 1 if any run fails or any spread is too wide.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        named = {}  # the workload-specific figures, printed but not gated
        for i in range(args.runs):
            seed = args.seed0 + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for line in lines:
                if line.startswith("metric "):
                    _, name, value, unit = line.split()
                    named.setdefault(f"{name} ({unit})", []).append(float(value))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'limit':>6}  verdict")
        for name, m in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            steady = spread < limit
            ok &= steady
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                  f"{limit:>6.3f}  {'ok' if steady else 'TOO WIDE'}")
        print("  not gated:")
        for name, v in named.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<36} median {med:<12.6g} spread {spread:.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
