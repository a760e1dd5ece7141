#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads ingest,serve,publish]

Runs each workload --runs times through perfbench/run.py, each time with
the next seed and the run length of BENCHMARK.json, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound. A
spread above a third of its bound is flagged. The bounds in BENCHMARK.json
and the reference figures in perfbench/README.md come from this output.
Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.monotonic() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for workload in workloads:
        values, shares, walls = {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(workload, seed, spec["run_seconds"])
            walls.append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: a check failed")
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, wall {min(walls):.0f}-"
              f"{max(walls):.0f} s per run, failed share "
              f"{sorted(set(shares))}")
        print(f"  {'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(values):
            vals = values[name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, 0)
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <- wide"
            print(f"  {name:26} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bound:6.2f} {units.get(name, '')}{flag}")


if __name__ == "__main__":
    main()
