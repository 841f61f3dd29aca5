#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark and the library are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. The benchmark's own output is relayed, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build, a correctness check or the
run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify_hot", "verify_tenants", "combine")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, target="perfbench"):
    """Configures (once) and builds `target`; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/; "
                 "run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        cmd += ["--span-out", os.path.join(
            out_dir, "spans", f"{args.workload}-seed{args.seed}.tsv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0:
        last = lines[-1] if lines else ""
        fail(f"benchmark exited with {r.returncode}: {last}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            not result["correct"]:
        fail("malformed or incorrect result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
