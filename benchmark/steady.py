#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload several times, each with
another seed, and print for every end-to-end metric the median, the
quartiles, their distance as a share of the median, and max/min.

    python3 benchmark/steady.py [--runs 10] [--seconds S]
                                [--workloads tune-paper,tune-grid,serve-jobs]
                                [--same-seed]

Seeds run from 1 to --runs; --seconds defaults to run_seconds of
BENCHMARK.json. Run it from the repository root. The bounds in
BENCHMARK.json are set from its output; see README.md for the figures it
printed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    with open("BENCHMARK.json") as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--workloads", default="tune-paper,tune-grid,serve-jobs")
    ap.add_argument("--same-seed", action="store_true",
                    help="repeat the first seed, to separate host noise from seed effects")
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = 1 + (0 if args.same_seed else i)
            r = run(workload, seed, args.seconds)
            if not r["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            results.append(r)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs of {args.seconds} s, "
              f"failed share(s) {', '.join(f'{s:.6f}' for s in shares)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            lo, hi = min(values), max(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            ratio = hi / lo if lo else float("nan")
            print(f"  {name:<14} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{ratio:>8.4f}  {m['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
