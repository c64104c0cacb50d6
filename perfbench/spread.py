#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median: the run-to-run noise each end-to-end bound in BENCHMARK.json must
stay well above. Run from the repository root:

    python3 perfbench/spread.py --workload gasync --seeds 1-10 --seconds 10
    python3 perfbench/spread.py --workload lock --seeds 1-5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())),
            flush=True)

    print(f"\n{'metric':40} {'unit':6} {'median':>12} {'spread':>8}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        print(f"{name:40} {units[name]:6} {med:12.6g} {spread:8.3f}")


if __name__ == "__main__":
    main()
