#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and prints, per metric,
the median, quartiles, min/max and the spread (interquartile range over the
median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1000]
                                    [--workloads verify_hot,combine] [--trace]
                                    [--save set.json] [--against set.json]

Each run uses another seed (seed, seed+1, ...). Each run's median
host-speed reference over its window parts is listed, so runs taken while
the host was slow can be picked out, and the spread of every timing metric
is also given as measured, before the benchmark scales it to the nominal
host speed. --save writes every run's values to a file; --against
compares this set's medians with a saved set's and prints how much worse
each got, against its bound. Quartiles are those of Python's
statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().split("\n")
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({r.returncode})")
    info = {"result": json.loads(lines[-1]), "measured": {}}
    for line in lines:
        if line.startswith("host_ref_ms after window parts:"):
            refs = [float(x) for x in line.split(":")[1].split()]
            info["host_ref_ms"] = statistics.median(refs)
        m = re.match(r"([A-Za-z0-9_.]+) +([-\d.]+) +([-\d.]+) +\S+ +\S", line)
        if m and m.group(1) in info["result"]["metrics"]:
            info["measured"][m.group(1)] = float(m.group(3))
        if line.startswith("nproc="):
            info["host"] = line
        if line.startswith("env BNR_"):
            info.setdefault("env", []).append(line[4:])
    return info


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("nan")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description="benchmark steadiness report")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", action="store_true",
                    help="report the per-layer metrics of traced runs")
    ap.add_argument("--save", help="write every run's values to this file")
    ap.add_argument("--against",
                    help="compare medians with a set written by --save")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)

    worst, worst_shift = 0.0, 0.0
    saved = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            info = run_once(workload, args.seed + i, args.seconds, args.trace)
            values = " ".join(
                f"{k}={v['value']:.5g}"
                for k, v in sorted(info["result"]["metrics"].items()))
            print(f"{workload} seed={args.seed + i} "
                  f"host_ref_ms={info.get('host_ref_ms', float('nan')):.2f} "
                  f"{values}", flush=True)
            runs.append(info)
        print(f"== {workload}: {args.runs} runs, {args.seconds} s each; "
              f"{runs[0].get('host', '')}; "
              f"env {' '.join(runs[0].get('env', [])) or 'none'}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6} "
              f"{'/bound':>6} {'measured':>8} {'worse':>7}")
        names = sorted(runs[0]["result"]["metrics"])
        saved[workload] = {}
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            saved[workload][name] = vals
            s = summarize(vals)
            bound = bounds.get(name)
            rel = s["spread"] / bound if bound else None
            if rel is not None:
                worst = max(worst, rel)
            # The spread of the values as measured, before host scaling.
            raw = [r["measured"][name] for r in runs
                   if name in r["measured"]]
            raw_spread = (summarize(raw)["spread"] if len(raw) == len(runs)
                          else float("nan"))
            # How much worse this set's median is than the saved set's.
            shift = float("nan")
            if name in before.get(workload, {}):
                old = statistics.median(before[workload][name])
                shift = (s["median"] - old) / old
                if better.get(name) == "higher":
                    shift = -shift
                if bound:
                    worst_shift = max(worst_shift, shift / bound)
            print(f"{name:34} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['min']:12.5g} {s['max']:12.5g} "
                  f"{s['spread']:7.3f} "
                  f"{bound if bound is not None else '-':>6} "
                  f"{rel if rel is not None else float('nan'):6.2f} "
                  f"{raw_spread:8.3f} {shift:7.3f}")
    if not args.trace:
        print(f"largest spread / bound: {worst:.2f}")
        if before:
            print(f"largest median worsening / bound: {worst_shift:.2f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
