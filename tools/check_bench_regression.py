#!/usr/bin/env python3
"""CI bench-regression guard over the BENCH_*.json schema.

Two guard kinds:

  --ratio SLOW:FAST   The speedup current[SLOW]/current[FAST] must not fall
                      more than --tolerance below baseline[SLOW]/baseline[FAST].
                      Ratios divide out the absolute speed of the runner, so
                      they are stable across CI hardware generations; this is
                      the primary guard for the cached-verify and batching
                      speedups.
  --metric NAME       current[NAME] must not exceed baseline[NAME] by more
                      than --tolerance (absolute ns/op; only meaningful when
                      baseline and current ran on comparable hardware).
  --unit NAME         Reads every --metric in units of the record NAME, each
                      side divided by its own run's NAME (e.g. field/mul, a
                      chain of dependent field multiplies), so runner speed
                      divides out of the --metric guards too.
  --min-ratio SLOW:FAST=X
                      Hard floor: current[SLOW]/current[FAST] must be >= X
                      regardless of the baseline (e.g. "batched Combine must
                      stay >= 3x the per-partial path").
  --max-ratio A:B=X   Hard ceiling: current[A]/current[B] must be <= X (e.g.
                      "the multi-tenant request path must stay within 1.5x of
                      the single-tenant cached path").
  --min-metric NAME=X Hard floor on a recorded value: current[NAME] >= X
                      (e.g. "warm-cache hit rate >= 90"; the JSON schema
                      stores any scalar under ns_per_op).

--baseline is only required for the baseline-relative guards (--ratio,
--metric); the hard floors/ceilings run against --current alone.

Exit status 1 on any violation; missing records are violations too (a rename
must update the guard, not silently drop it).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return {r["name"]: float(r["ns_per_op"]) for r in json.load(f)}


def get(table, name, path):
    if name not in table:
        print(f"FAIL: record '{name}' missing from {path}")
        return None
    return table[name]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline")
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--ratio", action="append", default=[],
                    metavar="SLOW:FAST")
    ap.add_argument("--metric", action="append", default=[], metavar="NAME")
    ap.add_argument("--unit", metavar="NAME",
                    help="read each --metric in units of this record")
    ap.add_argument("--min-ratio", action="append", default=[],
                    metavar="SLOW:FAST=X")
    ap.add_argument("--max-ratio", action="append", default=[],
                    metavar="A:B=X")
    ap.add_argument("--min-metric", action="append", default=[],
                    metavar="NAME=X")
    args = ap.parse_args()

    if (args.ratio or args.metric) and not args.baseline:
        ap.error("--ratio/--metric require --baseline")
    base = load(args.baseline) if args.baseline else {}
    cur = load(args.current)
    ok = True

    for spec in args.ratio:
        slow, fast = spec.split(":")
        vals = [get(cur, slow, args.current), get(cur, fast, args.current),
                get(base, slow, args.baseline), get(base, fast, args.baseline)]
        if None in vals:
            ok = False
            continue
        cur_speedup = vals[0] / vals[1]
        base_speedup = vals[2] / vals[3]
        floor = base_speedup * (1.0 - args.tolerance)
        status = "ok" if cur_speedup >= floor else "FAIL"
        print(f"{status}: speedup {slow} / {fast}: current {cur_speedup:.2f}x"
              f" vs baseline {base_speedup:.2f}x (floor {floor:.2f}x)")
        ok = ok and cur_speedup >= floor

    for name in args.metric:
        vals = [get(cur, name, args.current), get(base, name, args.baseline)]
        if args.unit:
            vals += [get(cur, args.unit, args.current),
                     get(base, args.unit, args.baseline)]
        if None in vals:
            ok = False
            continue
        c, b, unit = vals[0], vals[1], "ns"
        if args.unit:
            c, b, unit = c / vals[2], b / vals[3], args.unit
        ceil = b * (1.0 + args.tolerance)
        status = "ok" if c <= ceil else "FAIL"
        print(f"{status}: {name}: current {c:.0f} {unit} vs baseline {b:.0f}"
              f" {unit} (ceiling {ceil:.0f} {unit})")
        ok = ok and c <= ceil

    for spec in args.min_ratio:
        pair, floor_s = spec.split("=")
        slow, fast = pair.split(":")
        floor = float(floor_s)
        c_slow, c_fast = get(cur, slow, args.current), get(cur, fast,
                                                          args.current)
        if c_slow is None or c_fast is None:
            ok = False
            continue
        cur_speedup = c_slow / c_fast
        status = "ok" if cur_speedup >= floor else "FAIL"
        print(f"{status}: speedup {slow} / {fast}: current {cur_speedup:.2f}x"
              f" (hard floor {floor:.2f}x)")
        ok = ok and cur_speedup >= floor

    for spec in args.max_ratio:
        pair, ceil_s = spec.split("=")
        a, b = pair.split(":")
        ceil = float(ceil_s)
        c_a, c_b = get(cur, a, args.current), get(cur, b, args.current)
        if c_a is None or c_b is None:
            ok = False
            continue
        ratio = c_a / c_b
        status = "ok" if ratio <= ceil else "FAIL"
        print(f"{status}: ratio {a} / {b}: current {ratio:.2f}x"
              f" (hard ceiling {ceil:.2f}x)")
        ok = ok and ratio <= ceil

    for spec in args.min_metric:
        name, floor_s = spec.split("=")
        floor = float(floor_s)
        c = get(cur, name, args.current)
        if c is None:
            ok = False
            continue
        status = "ok" if c >= floor else "FAIL"
        print(f"{status}: {name}: current {c:.1f} (hard floor {floor:.1f})")
        ok = ok and c >= floor

    if not ok:
        print("bench regression check FAILED")
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
