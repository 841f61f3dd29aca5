#!/usr/bin/env python3
"""Self-tests for tools/analyze/bnr_lint.py.

Fixture protocol: every `fixtures/*_bad.cpp` carries `// EXPECT: BNR-Lxxx`
comments on the exact lines the linter must flag, and nothing else may be
flagged. Every `fixtures/*_good.cpp` is a clean twin that must produce zero
findings — it exercises the same syntax (often in comments and strings) so a
lazy rule regresses loudly.

Stdlib-only (unittest); run as `python3 -m unittest` from this directory or
directly as a script. CI runs this before linting the real tree, so a broken
rule cannot silently pass an empty scan off as a clean one.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, os.path.dirname(HERE))

import bnr_lint  # noqa: E402

EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(BNR-L\d+)")


def expected_findings(path):
    out = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for m in EXPECT_RE.finditer(line):
                out.add((m.group(1), lineno))
    return out


def lint(path, engine="regex"):
    findings, _ = bnr_lint.lint_file(FIXTURES, path, engine)
    return {(f.rule, f.line) for f in findings}


class FixtureTests(unittest.TestCase):
    """Each bad fixture flags exactly its EXPECT lines; twins stay clean."""

    def test_fixtures_exist_in_pairs(self):
        names = sorted(os.listdir(FIXTURES))
        bad = [n for n in names if n.endswith("_bad.cpp")]
        good = [n for n in names if n.endswith("_good.cpp")]
        self.assertEqual(len(bad), len(good))
        self.assertGreaterEqual(len(bad), 7)  # one pair per rule minimum

    def test_every_rule_has_a_fixture(self):
        covered = set()
        for name in os.listdir(FIXTURES):
            if name.endswith("_bad.cpp"):
                covered |= {r for r, _ in
                            expected_findings(os.path.join(FIXTURES, name))}
        self.assertEqual(covered, set(bnr_lint.RULES))

    def test_bad_fixtures_flag_exactly_expected_lines(self):
        for name in sorted(os.listdir(FIXTURES)):
            if not name.endswith("_bad.cpp"):
                continue
            path = os.path.join(FIXTURES, name)
            with self.subTest(fixture=name):
                expected = expected_findings(path)
                self.assertTrue(expected, f"{name} has no EXPECT comments")
                self.assertEqual(lint(path), expected)

    def test_good_fixtures_are_clean(self):
        for name in sorted(os.listdir(FIXTURES)):
            if not name.endswith("_good.cpp"):
                continue
            path = os.path.join(FIXTURES, name)
            with self.subTest(fixture=name):
                self.assertEqual(lint(path), set())


class ScopeTests(unittest.TestCase):
    """Rules that exempt one file exempt exactly that file."""

    def test_l008_allows_asm_in_the_kernel_file_only(self):
        src = 'asm("" ::: "memory");\n'
        lines = bnr_lint.clean_source_regex(src).split("\n")
        self.assertEqual(list(bnr_lint.rule_l008("src/field/fp.hpp", lines)),
                         [])
        for other in ("src/field/tower.hpp", "src/bn/u256.hpp",
                      "tests/field/fp.hpp"):
            with self.subTest(file=other):
                found = list(bnr_lint.rule_l008(other, lines))
                self.assertEqual([(f.rule, f.line) for f in found],
                                 [("BNR-L008", 1)])


class CleanerTests(unittest.TestCase):
    def test_comments_and_strings_blanked_columns_preserved(self):
        src = 'int x = 1; // rand()\nconst char* s = "srand(7)";\n'
        cleaned = bnr_lint.clean_source_regex(src)
        self.assertNotIn("rand", cleaned)
        for a, b in zip(src.split("\n"), cleaned.split("\n")):
            self.assertEqual(len(a), len(b))

    def test_raw_string_blanked(self):
        src = 'auto s = R"(memcmp(secret, other, n))";\nint y;\n'
        cleaned = bnr_lint.clean_source_regex(src)
        self.assertNotIn("memcmp", cleaned)
        self.assertIn("int y;", cleaned)

    def test_block_comment_spanning_lines(self):
        src = "int a;\n/* srand(1);\n   rand(); */\nint b;\n"
        cleaned = bnr_lint.clean_source_regex(src)
        self.assertNotIn("rand", cleaned)
        self.assertEqual(src.count("\n"), cleaned.count("\n"))


class BaselineTests(unittest.TestCase):
    def _finding(self, rule="BNR-L003", file="src/x.cpp", line=1):
        return bnr_lint.Finding(rule, file, line, "m", "h")

    def test_baselined_findings_are_suppressed(self):
        findings = [self._finding(line=i) for i in (1, 2)]
        baseline = [{"rule": "BNR-L003", "file": "src/x.cpp", "count": 2}]
        new, suppressed, stale = bnr_lint.apply_baseline(findings, baseline)
        self.assertEqual((len(new), len(suppressed), len(stale)), (0, 2, 0))

    def test_count_overflow_is_new(self):
        findings = [self._finding(line=i) for i in (1, 2, 3)]
        baseline = [{"rule": "BNR-L003", "file": "src/x.cpp", "count": 2}]
        new, suppressed, _ = bnr_lint.apply_baseline(findings, baseline)
        self.assertEqual((len(new), len(suppressed)), (1, 2))

    def test_stale_entry_detected(self):
        baseline = [{"rule": "BNR-L001", "file": "src/gone.cpp", "count": 1}]
        new, suppressed, stale = bnr_lint.apply_baseline([], baseline)
        self.assertEqual((len(new), len(suppressed), len(stale)), (0, 0, 1))


class CliTests(unittest.TestCase):
    """End-to-end through the real argv entry point (the CI invocation)."""

    SCRIPT = os.path.join(os.path.dirname(HERE), "bnr_lint.py")

    def run_cli(self, *argv):
        return subprocess.run([sys.executable, self.SCRIPT, *argv],
                              capture_output=True, text=True, check=False)

    def test_bad_fixture_fails_and_names_rule(self):
        r = self.run_cli("--root", FIXTURES, "--engine", "regex",
                         "l003_bad.cpp")
        self.assertEqual(r.returncode, 1)
        self.assertIn("BNR-L003", r.stdout)
        self.assertIn("hint:", r.stdout)

    def test_good_fixture_passes(self):
        r = self.run_cli("--root", FIXTURES, "--engine", "regex",
                         "l003_good.cpp")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_baseline_suppresses_then_goes_stale(self):
        entries = [{"rule": rule, "file": "l003_bad.cpp", "count": 3,
                    "justification": "fixture"} for rule in ("BNR-L003",)]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(entries, f)
            baseline = f.name
        try:
            ok = self.run_cli("--root", FIXTURES, "--engine", "regex",
                              "--baseline", baseline, "l003_bad.cpp")
            self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
            stale = self.run_cli("--root", FIXTURES, "--engine", "regex",
                                 "--baseline", baseline, "l003_good.cpp")
            self.assertEqual(stale.returncode, 1)
            self.assertIn("stale", stale.stdout)
        finally:
            os.unlink(baseline)

    def test_list_rules_covers_catalogue(self):
        r = self.run_cli("--list-rules")
        self.assertEqual(r.returncode, 0)
        for rule in bnr_lint.RULES:
            self.assertIn(rule, r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
