#!/usr/bin/env python3
"""Run the benchmark on every workload (and several seeds) in one go.

    python3 perfbench/runs.py                      # every workload, seed 1, untraced
    python3 perfbench/runs.py --trace both         # and the traced replay
    python3 perfbench/runs.py --seeds 10 --workloads warm-mix

Run from the repository root. It runs the command in BENCHMARK.json once
per workload, seed and trace mode and prints each run's report. With two or
more seeds it also prints, per end-to-end metric, the median and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound. Exits 1 if any
run fails or reports a wrong reply.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=1, help="seeds 1..N")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    args = ap.parse_args()
    traces = ["0", "1"] if args.trace == "both" else [args.trace]

    ok = True
    for w in args.workloads:
        for trace in traces:
            runs = []
            for seed in range(1, args.seeds + 1):
                cmd = bench["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", trace,
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]))
                try:
                    result = json.loads(lines[-1])
                except (json.JSONDecodeError, IndexError):
                    result = {"correct": False}
                if proc.returncode != 0 or not result["correct"]:
                    print(f"FAILED: {w} seed {seed} trace {trace} (exit {proc.returncode})")
                    ok = False
                    continue
                runs.append(result["metrics"])
            if trace == "0" and len(runs) >= 2:
                spreads(w, bench["end_to_end"], runs)
    sys.exit(0 if ok else 1)


def spreads(workload, metrics, runs):
    print(f"\n{workload}: {len(runs)} runs")
    for m in metrics:
        values = [r[m["name"]]["value"] for r in runs if m["name"] in r]
        if len(values) < 2:
            print(f"  {m['name']:<16} missing")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        flag = "" if spread < m["bound"] / 3 else " (over a third of the bound)"
        print(f"  {m['name']:<16} median {median:12.4f} {m['unit']:<4} "
              f"spread {spread:.4f} bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
