#!/usr/bin/env python3
"""Tests for scripts/ab_bench.py (registered with CTest as tooling.ab_bench).

Feeds canned perfbench result lines through the script's summary and checks
the quartiles, the per-pair ratios, the pairs won, the env-stamp comparison
and the verdict in both `better` directions. No perfbench run and no
worktree is started here; the two command-line tests stop at the usage
checks.
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
AB_BENCH = REPO_ROOT / "scripts" / "ab_bench.py"

_spec = importlib.util.spec_from_file_location("ab_bench", AB_BENCH)
ab = importlib.util.module_from_spec(_spec)
sys.modules["ab_bench"] = ab  # dataclasses look their module up while it loads
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25},
]


def result_line(setup_s: float, cells_per_s: float, correct: bool = True) -> str:
    """The last stdout line of perfbench/run.py."""
    return json.dumps({
        "correct": correct, "attempted": 3, "failed": 0 if correct else 3,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                    "cells_per_s": {"value": cells_per_s, "unit": "cells/s"}},
    })


def pairs(base: list[tuple[float, float]], change: list[tuple[float, float]]):
    def parse(values: tuple[float, float]) -> dict:
        stdout = "env: nproc=4\nsetup: 3 samples\n" + result_line(*values) + "\n"
        return ab.parse_result(stdout)

    return [(parse(b), parse(c)) for b, c in zip(base, change)]


def by_name(summaries) -> dict:
    return {s.name: s for s in summaries}


BASE = [(1.0, 2.0), (1.1, 2.2), (0.9, 1.8), (1.2, 2.4), (1.0, 2.0)]

STAMP = ("env: nproc=4 cpu='Intel Xeon' build_type=RelWithDebInfo simd=avx2 workers=2 "
         "seed=1 workload=native-grid trace=0")


class Statistics(unittest.TestCase):
    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(ab.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))
        self.assertEqual(ab.quartiles([4, 3, 2, 1]), (1.75, 2.5, 3.25))
        self.assertEqual(ab.quartiles([7]), (7, 7, 7))

    def test_ratio_of_a_zero_base(self):
        self.assertEqual(ab.ratio(0.0, 0.0), 1.0)
        self.assertEqual(ab.ratio(1.0, 0.0), math.inf)
        self.assertEqual(ab.ratio(3.0, 4.0), 0.75)

    def test_parse_result_takes_the_last_line(self):
        self.assertIsNone(ab.parse_result(""))
        self.assertIsNone(ab.parse_result("perfbench: build failed\n"))
        self.assertIsNone(ab.parse_result('{"correct": true}'))
        self.assertTrue(ab.parse_result("env: x\n" + result_line(1.0, 2.0))["correct"])


class EnvStamp(unittest.TestCase):
    def test_env_stamp_is_the_env_line(self):
        stdout = STAMP + "\nsetup: 3 samples\n" + result_line(1.0, 2.0) + "\n"
        self.assertEqual(ab.env_stamp(stdout), STAMP)
        self.assertIsNone(ab.env_stamp(result_line(1.0, 2.0)))

    def test_equal_optimised_stamps_are_comparable(self):
        self.assertIsNone(ab.stamp_problem(STAMP, STAMP))

    def test_differing_stamps_are_a_problem(self):
        other = STAMP.replace("simd=avx2", "simd=scalar")
        self.assertIn("differ", ab.stamp_problem(STAMP, other))

    def test_a_stamp_not_optimised_is_a_problem(self):
        slow = STAMP.replace("build_type=RelWithDebInfo",
                             "build_type=Debug (NOT OPTIMISED: numbers are not comparable)")
        self.assertIn("NOT OPTIMISED", ab.stamp_problem(slow, slow))
        self.assertIn("NOT OPTIMISED", ab.stamp_problem(STAMP, slow))

    def test_a_missing_stamp_is_a_problem(self):
        self.assertIsNotNone(ab.stamp_problem(None, STAMP))
        self.assertIsNotNone(ab.stamp_problem(STAMP, None))


class Summary(unittest.TestCase):
    def test_ratios_quartiles_and_pairs_won(self):
        change = [(0.5, 2.0), (0.6, 2.2), (0.4, 1.8), (0.5, 2.4), (0.55, 2.0)]
        s = by_name(ab.summarize(METRICS, pairs(BASE, change)))
        setup = s["setup_s"]
        self.assertEqual(setup.pairs, 5)
        self.assertEqual(setup.base, (1.0, 1.0, 1.1))
        self.assertEqual(setup.change, (0.5, 0.5, 0.55))
        # Per-pair ratios 0.5, 0.545, 0.444, 0.417, 0.55.
        self.assertAlmostEqual(setup.ratio[0], 0.4 / 0.9)
        self.assertAlmostEqual(setup.ratio[1], 0.5)
        self.assertAlmostEqual(setup.ratio[2], 0.6 / 1.1)
        self.assertEqual(setup.won, 5)
        self.assertFalse(setup.worse)
        # Equal values are no win, and a ratio of 1 is not worse.
        cells = s["cells_per_s"]
        self.assertEqual(cells.ratio, (1.0, 1.0, 1.0))
        self.assertEqual(cells.won, 0)
        self.assertFalse(cells.worse)
        self.assertEqual(ab.verdict(list(s.values()), 0), 0)
        self.assertIn("ratio x0.500 (0.444-0.545), change better in 5/5 pairs: ok",
                      setup.line("trace-replay"))

    def test_lower_is_better_regression_fails(self):
        slower = [(b * 1.3, c) for b, c in BASE]
        s = by_name(ab.summarize(METRICS, pairs(BASE, slower)))
        self.assertAlmostEqual(s["setup_s"].ratio[1], 1.3)
        self.assertTrue(s["setup_s"].worse)
        self.assertFalse(s["cells_per_s"].worse)
        self.assertEqual(ab.verdict(list(s.values()), 0), 1)
        self.assertIn("WORSE", s["setup_s"].line("native-grid"))

    def test_lower_is_better_inside_the_bound_passes(self):
        slower = [(b * 1.2, c) for b, c in BASE]
        s = ab.summarize(METRICS, pairs(BASE, slower))
        self.assertEqual(ab.verdict(s, 0), 0)

    def test_higher_is_better_regression_fails(self):
        slower = [(b, c * 0.7) for b, c in BASE]
        s = by_name(ab.summarize(METRICS, pairs(BASE, slower)))
        self.assertAlmostEqual(s["cells_per_s"].ratio[1], 0.7)
        self.assertTrue(s["cells_per_s"].worse)
        self.assertEqual(ab.verdict(list(s.values()), 0), 1)

    def test_higher_is_better_inside_the_bound_passes(self):
        slower = [(b, c * 0.8) for b, c in BASE]
        s = ab.summarize(METRICS, pairs(BASE, slower))
        self.assertEqual(ab.verdict(s, 0), 0)

    def test_gains_in_both_directions_pass(self):
        faster = [(b * 0.5, c * 2.0) for b, c in BASE]
        s = by_name(ab.summarize(METRICS, pairs(BASE, faster)))
        self.assertEqual(s["setup_s"].won, 5)
        self.assertEqual(s["cells_per_s"].won, 5)
        self.assertAlmostEqual(s["cells_per_s"].ratio[1], 2.0)
        self.assertEqual(ab.verdict(list(s.values()), 0), 0)

    def test_an_incorrect_run_fails_whatever_the_ratios(self):
        s = ab.summarize(METRICS, pairs(BASE, BASE))
        self.assertEqual(ab.verdict(s, 0), 0)
        self.assertEqual(ab.verdict(s, 1), 1)

    def test_a_metric_one_side_lacks_leaves_that_pair_out(self):
        runs = pairs(BASE, BASE)
        del runs[0][1]["metrics"]["setup_s"]
        s = by_name(ab.summarize(METRICS, runs))
        self.assertEqual(s["setup_s"].pairs, 4)
        self.assertEqual(s["cells_per_s"].pairs, 5)


@unittest.skipUnless(shutil.which("git"), "needs git on PATH")
class CommandLine(unittest.TestCase):
    def run_script(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(AB_BENCH), *args],
                              capture_output=True, text=True, cwd=REPO_ROOT)

    def test_fewer_than_five_pairs_is_a_usage_error(self):
        result = self.run_script("HEAD", "--pairs", "4")
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("--pairs must be at least 5", result.stderr)

    def test_unknown_revision_is_a_usage_error(self):
        result = self.run_script("no-such-revision-0c6e1f")
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("unknown revision", result.stderr)


if __name__ == "__main__":
    unittest.main()
