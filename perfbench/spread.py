#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance rule computes it.

Runs the command of BENCHMARK.json once per seed on each named workload
and prints, for every metric, the median of the runs and the distance
between their first and third quartiles as a share of that median
(statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py --workloads closure_batch,live_view \
        --seeds 1-10 [--trace 0] [--seconds N] [--out runs.jsonl]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bound = {m["name"]: m.get("bound") for m in metrics}
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                out.flush()
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}:")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else 0.0
            b = bound[name]
            flag = ""
            if b is not None and name != "setup_s":
                worst = max(worst, share / b)
                flag = "  OK" if share < b / 3 else ("  within bound" if share <= b else "  OVER BOUND")
            print(f"  {name:<40} median {med:14.4f}  iqr/median {share:7.4f}"
                  f"  bound {b}{flag}")
    print(f"worst spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
