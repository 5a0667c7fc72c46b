#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with its own seed,
and print every end-to-end metric's median, quartiles and spread
(interquartile distance over the median) beside its bound from
BENCHMARK.json.

    python3 e2ebench/steady.py --workload csv-poly -k 10

The runs use seeds 1..k and BENCHMARK.json's run_seconds, the inputs and
run length the bounds are set on.

Run from the root of the repository. The quartiles are those of
statistics.quantiles(values, n=4). A spread above a third of the bound
is flagged; setup_s is reported but not flagged, its spread is not held
to the bound, only its median between two sets of runs is.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = set()
    for seed in range(1, args.k + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct is false")
        shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", file=sys.stderr, flush=True)

    print(f"{'metric':18} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        flag = "" if name == "setup_s" or spread < bound / 3 else "  WIDE"
        print(f"{name:18} {med:14.6f} {q1:14.6f} {q3:14.6f} "
              f"{spread:8.4f} {bound:6.3f}{flag}")
    print(f"failed shares: {sorted(shares)}")


if __name__ == "__main__":
    main()
