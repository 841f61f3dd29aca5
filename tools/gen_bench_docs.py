#!/usr/bin/env python3
"""Generate docs/benchmarks.md from the committed bench records.

bench/records/BENCH_<exp>.<tag>.json files are the guarded baselines the CI
regression gate compares against (see tools/check_bench_regression.py).
This script renders every record into one human-readable document so the
numbers the gates rely on are browsable without opening JSON, and so a PR
that adds a record cannot forget to surface it.

Usage:
    tools/gen_bench_docs.py            # rewrite docs/benchmarks.md
    tools/gen_bench_docs.py --check    # exit 1 if docs/benchmarks.md is
                                       # stale or misses a record (CI)
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "bench" / "records"
OUT = ROOT / "docs" / "benchmarks.md"

# One blurb per experiment, shown above its record tables. Every
# experiment with a committed record MUST have an entry here — a new
# record without a description fails --check loudly.
EXPERIMENTS = {
    "e2": ("Group and field operation costs",
           "bench/e2_ops.cpp — pairing, Miller loop, final exponentiation, "
           "G1/G2 scalar mult, and field-tower microbenchmarks."),
    "e5": ("Verification ladder",
           "bench/e5_verify.cpp — reference path vs on-the-fly prepared vs "
           "cached verifier vs 64-signature RLC batch. The cached/batch "
           "speedup ratios are CI-gated."),
    "e11": ("Combine and service batching",
            "bench/e11_service.cpp — combine with share verification at "
            "n=33, t=16 (per-partial vs stateless vs the cached serving "
            "combiner; records before the optimistic combine timed an RLC "
            "fold of every partial) and verification-service throughput "
            "with and without batching."),
    "e12": ("Multi-tenant cache",
            "bench/e12_multitenant.cpp — hit rate vs throughput at "
            "1k/10k/100k Zipf(1.0) tenant keys under a byte budget, plus "
            "the type-erasure overhead on the cached verify path "
            "(CI-gated at 1.05x)."),
    "e13": ("Serving daemon over loopback",
            "bench/e13_daemon.cpp — daemon throughput and latency vs the "
            "in-process service path: 1 and 4 pipelined connections "
            "against the SO_REUSEPORT multi-loop front end, shallow-window "
            "latency percentiles, and the low-load p50 that adaptive flush "
            "bounds. The c4/in-process ratio is CI-gated (informational)."),
    "e14": ("Overload and goodput retention",
            "bench/e14_overload.cpp — open-loop load at 2x/4x/10x measured "
            "capacity with 100 ms budgets: in-deadline goodput with "
            "admission control + shedding vs the uncapped configuration."),
    "e15": ("Cluster routing and failover",
            "bench/e15_cluster.cpp — 1M distinct tenant keys through the "
            "consistent-hash ring (ns/route, balance, restart determinism), "
            "Zipf traffic over 3 local daemons with replicated "
            "registrations (aggregate hit rate, steady goodput), and "
            "goodput retention through a kill-one-node failover "
            "(CI floor 70%, informational)."),
    "e16": ("Observability overhead",
            "bench/e16_obs.cpp — ns/op for every obs primitive (histogram "
            "record, trace stamp+fold, suppressed/below-level log sites, "
            "Prometheus render) and the serving-path A/B: cached-verify RPC "
            "traffic with the obs master switch off vs on, windows "
            "interleaved to cancel drift. CI gates "
            "obs/verify_ns_on <= 1.05x obs/verify_ns_off (informational)."),
}

HEADER = """\
# Benchmark records

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python3 tools/gen_bench_docs.py -->

Committed baselines from `bench/records/`, the numbers
`tools/check_bench_regression.py` gates CI against. Absolute values are
machine-dependent; the gates compare *ratios* within one run, so they are
insensitive to runner speed. Record files are named
`BENCH_<experiment>.<pr-tag>.json` — the tag is the PR that set the
baseline.

Reproduce any row by building Release and running the experiment binary
(e.g. `./build/e13_daemon` writes `BENCH_e13.json` in the working
directory).
"""


def record_key(path):
    """Sort key: experiment number, then PR tag number."""
    m = re.match(r"BENCH_e(\d+)\.(?:pr(\d+)\.)?json$", path.name)
    if not m:
        raise SystemExit(f"unrecognized record name: {path.name}")
    return (int(m.group(1)), int(m.group(2) or 0))


def render():
    records = sorted(RECORDS.glob("BENCH_*.json"), key=record_key)
    if not records:
        raise SystemExit(f"no records found under {RECORDS}")
    lines = [HEADER]
    current_exp = None
    for path in records:
        exp = re.match(r"BENCH_(e\d+)\.", path.name).group(1)
        if exp not in EXPERIMENTS:
            raise SystemExit(
                f"{path.name}: experiment {exp} has no description in "
                f"tools/gen_bench_docs.py EXPERIMENTS — add one")
        if exp != current_exp:
            title, blurb = EXPERIMENTS[exp]
            lines.append(f"\n## {exp.upper()} — {title}\n")
            lines.append(blurb + "\n")
            current_exp = exp
        rows = json.loads(path.read_text())
        lines.append(f"\n### `{path.name}`\n")
        lines.append("| metric | value |")
        lines.append("|--------|-------|")
        for row in rows:
            val = row["ns_per_op"]
            # Ratios and percentages are stored in the same field as
            # nanosecond costs; render small magnitudes without the
            # misleading thousands grouping.
            rendered = f"{val:,.1f}" if val >= 1000 else f"{val:g}"
            lines.append(f"| `{row['name']}` | {rendered} |")
        lines.append("")
    return "\n".join(lines)


def main():
    text = render()
    if "--check" in sys.argv[1:]:
        if not OUT.exists():
            print(f"FAIL: {OUT} does not exist; run tools/gen_bench_docs.py")
            return 1
        if OUT.read_text() != text:
            print(f"FAIL: {OUT} is stale (a bench/records/*.json changed); "
                  "run tools/gen_bench_docs.py and commit the result")
            return 1
        print(f"ok: {OUT} is current and covers every record")
        return 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
