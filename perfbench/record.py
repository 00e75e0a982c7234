#!/usr/bin/env python3
"""Writes or checks perfbench/record.json.

    python3 perfbench/record.py [--spreads runs.jsonl]   # rewrite the record
    python3 perfbench/record.py --check                  # compare counters

Writing runs one traced run per workload at the reference seed and
records the host, each workload's deterministic work counters, and the
share of an operation's time each layer took (from the run's spans).
`--spreads` adds the medians and quartile spreads of the untraced runs
that perfbench/spread.py appended to the given file. `--check` runs the
same traced runs and compares every counter with the record exactly:
counters do not depend on the host or the thread count, so any
difference is a change in the work the engine does. Run it from the
root of the repository.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict

RECORD = "perfbench/record.json"
REFERENCE_SEED = 1
HELD_OUT_SEED = 1009
# Per-layer metrics that count work: identical for a seed on any host.
COUNTERS = [
    "arrange.batches_merged",
    "arrange.merge_join_steps",
    "exec.emits",
    "exec.index_probes",
    "exec.tuples_scanned",
    "exec.useful_merge_ratio",
    "incremental.delete_emits",
    "incremental.delete_emits_per_view_row",
    "incremental.insert_emits",
    "incremental.view_rows",
    "output.support_rows",
    "worklist.steps",
]
# Span names of the trace, grouped by the layer they time.
LAYER_OF_SPAN = {
    "intern.setup": "intern",
    "intern.mint": "intern",
    "storage.edb_index": "storage",
    "arrange.arrange": "arrange",
    "worklist.eval": "worklist",
    "driver.eval": "driver",
    "output.materialize": "output",
    "output.answers": "output",
    "incremental.output": "incremental",
}


def traced_run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1",
    ]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"{workload}: exit {run.returncode}\n{run.stderr}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: incorrect result {result}")
    trace = json.load(open(f"perfbench/out/trace-{workload}-seed{seed}.json"))
    return result, trace


def layer_shares(trace):
    """Share of the operations' time (spans named "op", oracle checks
    excluded) per layer."""
    spans = trace["spans"]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    total = 0
    by_layer = defaultdict(int)

    def walk(i):
        name = spans[i]["name"]
        if name == "bench.oracle":
            return 0
        layer = LAYER_OF_SPAN.get(name)
        if layer is None:
            # An engine entry point: its self time is what no phase claims.
            layer = "bench" if name == "op" else name.split(".")[0] + " (unattributed)"
        by_layer[layer] += max(own[i], 0)
        return max(own[i], 0) + sum(walk(c) for c in children[i])

    for i, s in enumerate(spans):
        if s["name"] == "op":
            total += walk(i)
    return {k: round(v / total, 4) for k, v in sorted(by_layer.items())} if total else {}


def spreads(path):
    values = defaultdict(lambda: defaultdict(list))
    for line in open(path):
        r = json.loads(line)
        for name, m in r["metrics"].items():
            values[r["workload"]][name].append(m["value"])
    out = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, xs in metrics.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            out[workload][name] = {
                "runs": len(xs),
                "median": round(med, 4),
                "iqr_over_median": round((q3 - q1) / med, 4) if med else 0.0,
            }
    return out


def host():
    model = "unknown"
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spreads")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]

    if args.check:
        record = json.load(open(RECORD))
        bad = 0
        for w in names:
            result, _ = traced_run(bench, w, record["reference_seed"])
            want = record["workloads"][w]["counters"]
            for name, value in want.items():
                got = result["metrics"][name]["value"]
                if got != value:
                    bad += 1
                    print(f"{w} {name}: recorded {value}, now {got}")
        print("counters match the record" if not bad else f"{bad} counters differ")
        sys.exit(1 if bad else 0)

    record = json.load(open(RECORD)) if os.path.exists(RECORD) else {}
    record["host"] = host()
    record["reference_seed"] = REFERENCE_SEED
    record["held_out_seed"] = HELD_OUT_SEED
    record.setdefault("workloads", {})
    for w in names:
        result, trace = traced_run(bench, w, REFERENCE_SEED)
        m = result["metrics"]
        entry = record["workloads"].setdefault(w, {})
        record["host"]["engine_threads"] = m["par.threads"]["value"]
        entry["counters"] = {c: m[c]["value"] for c in COUNTERS}
        entry["layer_shares_of_op_time"] = layer_shares(trace)
        entry["layer_times_ms"] = {
            k: round(v["value"], 4) for k, v in m.items() if v["unit"] == "ms"
        }
        entry["trace_overhead_pct"] = round(m["trace.overhead_pct"]["value"], 2)
    if args.spreads:
        for w, s in spreads(args.spreads).items():
            record["workloads"].setdefault(w, {})["untraced_runs"] = s
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=2, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    main()
