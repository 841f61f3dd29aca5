#!/usr/bin/env python3
"""Tests of the benchmark's own logic and of its contract.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like run.py does, then checks: the bookkeeping
self-test (percentiles, span self time, window accounting, metric names);
that the metric names the binary declares match BENCHMARK.json; the shape of
BENCHMARK.json itself; that a seed reproduces its input digest and another
seed changes it; and that the benchmark refuses to run without the
repository's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PKG)
sys.path.insert(0, PKG)
import run as bench_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PerfbenchTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = bench_run.build_dir()
        cls.selftest = bench_run.build(out, "perfbench_selftest")
        cls.binary = bench_run.build(out, "perfbench")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_bookkeeping_selftest(self):
        r = subprocess.run([self.selftest], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_metric_names_match_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        declared = {"end_to_end": [], "per_layer": []}
        for line in out.split("\n"):
            if line:
                kind, name = line.split(" ")
                declared[kind].append(name)
        for kind in declared:
            names = declared[kind]
            self.assertEqual(len(names), len(set(names)), kind)
            for n in names:
                self.assertRegex(n, NAME)
            self.assertEqual(sorted(names),
                             sorted(m["name"] for m in self.spec[kind]), kind)

    def test_benchmark_json_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(tuple(names), bench_run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        every = names + [m["name"] for m in spec["end_to_end"]] + \
            [m["name"] for m in spec["per_layer"]]
        self.assertEqual(len(every), len(set(every)))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)

    def digest(self, workload, seed):
        out = subprocess.run([self.binary, "--workload", workload, "--seed",
                              str(seed), "--digest-only"], check=True,
                             capture_output=True, text=True).stdout
        m = re.search(r"inputs_digest=([0-9a-f]{64})", out)
        self.assertIsNotNone(m, out)
        return m.group(1)

    def test_seed_reproduces_inputs(self):
        for workload in bench_run.WORKLOADS:
            first = self.digest(workload, 7)
            self.assertEqual(first, self.digest(workload, 7), workload)
            self.assertNotEqual(first, self.digest(workload, 8), workload)

    def test_refuses_without_repository_sources(self):
        bare = os.path.join(bench_run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(PKG, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
