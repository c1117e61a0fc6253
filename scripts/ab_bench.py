#!/usr/bin/env python3
"""Same-host A/B run of perfbench: a base revision against the working tree.

Usage (from anywhere in a checkout):

    scripts/ab_bench.py <base-rev> [--workload NAME ...] [--pairs N] [--seed S]

Checks <base-rev> out as a git worktree under .bench_build/ab/<commit> (kept,
so a later run against the same commit reuses its build), then runs
`perfbench/run.py --trace 0` in that tree and in the working tree, in
alternating pairs per workload: the base runs first in even pairs and the
change first in odd ones, so a host phase that drifts lands on both sides.
Each tree first builds itself in one untimed `--seconds 0` run, whose
`env:` line (host, build type, SIMD level, workers) the script prints; every
timed run lasts BENCHMARK.json's run_seconds. --workload defaults to all of
BENCHMARK.json's workloads.

For every end-to-end metric of BENCHMARK.json it prints one line: both
sides' medians with quartiles, the median of the per-pair change/base ratios
with their quartiles, and the pairs the change won (strictly better in the
metric's `better` direction). Quartiles are statistics.quantiles' inclusive
ones.

Exit status: 1 when a run is not correct or gives no result, when the two
sides' `env:` lines differ or either says NOT OPTIMISED, or when a median
ratio is worse than that metric's bound in its `better` direction (above
1 + bound for `lower`, below 1 - bound for `higher`); 2 on a usage error (an
unknown revision, fewer than 5 pairs); 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
MIN_PAIRS = 5


def fail_usage(message: str) -> "NoReturn":  # noqa: F821
    print(f"ab_bench.py: error: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:  # statistics.quantiles needs two points before 3.13
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def ratio(change: float, base: float) -> float:
    if base == 0:
        return 1.0 if change == 0 else math.inf
    return change / base


@dataclass
class MetricSummary:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float
    base: tuple[float, float, float]
    change: tuple[float, float, float]
    ratio: tuple[float, float, float]
    won: int
    pairs: int

    @property
    def worse(self) -> bool:
        """True when the median ratio is past the bound in the bad direction."""
        if self.better == "lower":
            return self.ratio[1] > 1 + self.bound
        return self.ratio[1] < 1 - self.bound

    def line(self, workload: str) -> str:
        def span(q: tuple[float, float, float], fmt: str) -> str:
            return f"{q[1]:{fmt}} ({q[0]:{fmt}}-{q[2]:{fmt}})"

        return (f"{workload} {self.name} ({self.unit}, {self.better} is better, bound "
                f"{self.bound:g}): base {span(self.base, '.4g')}, change "
                f"{span(self.change, '.4g')}, ratio x{span(self.ratio, '.3f')}, change better "
                f"in {self.won}/{self.pairs} pairs: {'WORSE' if self.worse else 'ok'}")


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[MetricSummary]:
    """One summary per BENCHMARK.json end-to-end metric over (base, change)
    result pairs, each a run.py result line parsed from JSON. A pair enters a
    metric's summary only when both sides report that metric."""
    out = []
    for m in metrics:
        name = m["name"]
        values = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                  for b, c in pairs if name in b["metrics"] and name in c["metrics"]]
        if not values:
            continue
        if m["better"] == "lower":
            won = sum(1 for b, c in values if c < b)
        else:
            won = sum(1 for b, c in values if c > b)
        out.append(MetricSummary(
            name=name, unit=m["unit"], better=m["better"], bound=float(m["bound"]),
            base=quartiles([b for b, _ in values]), change=quartiles([c for _, c in values]),
            ratio=quartiles([ratio(c, b) for b, c in values]), won=won, pairs=len(values)))
    return out


def parse_result(stdout: str) -> dict | None:
    """run.py's last stdout line, or None when it is not a result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def env_stamp(stdout: str) -> str | None:
    """run.py's `env:` line, or None when it printed none."""
    return next((line for line in stdout.splitlines() if line.startswith("env: ")), None)


def stamp_problem(base: str | None, change: str | None) -> str | None:
    """Why two sides' env stamps make their numbers incomparable, or None."""
    if base is None or change is None:
        return "a side printed no env: line"
    if "NOT OPTIMISED" in base or "NOT OPTIMISED" in change:
        return "a side is NOT OPTIMISED"
    if base != change:
        return "the two sides' env: lines differ"
    return None


def verdict(summaries: list[MetricSummary], problems: int) -> int:
    """1 on any problem (an incorrect run, a stamp mismatch) or worse metric."""
    return 1 if problems or any(s.worse for s in summaries) else 0


def git(*args: str, error: str | None = None) -> str:
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        fail_usage(error or f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def base_tree(rev: str) -> str:
    """A worktree of @p rev under AB_DIR, created on first use."""
    commit = git("rev-parse", "--verify", "--quiet", rev + "^{commit}",
                 error=f"unknown revision {rev!r}")
    tree = os.path.join(AB_DIR, commit[:12])
    if not os.path.isdir(tree):
        git("worktree", "prune")
        os.makedirs(AB_DIR, exist_ok=True)
        git("worktree", "add", "--detach", tree, commit)
    elif git("-C", tree, "rev-parse", "HEAD") != commit:
        fail_usage(f"{tree} is not at {commit}; remove it with `git worktree remove`")
    return tree


def run_perfbench(tree: str, workload: str, seed: int,
                  seconds: float) -> tuple[dict | None, str | None]:
    """(result, env stamp) of one run.py run; the result is None on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        result = None
    return result, env_stamp(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_rev", help="the revision to compare the working tree against")
    ap.add_argument("--workload", action="append", help="a BENCHMARK.json workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS, help="alternating pairs per workload")
    ap.add_argument("--seed", type=int, default=1)
    opt = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = opt.workload or known
    for w in workloads:
        if w not in known:
            fail_usage(f"unknown workload {w!r} (BENCHMARK.json has {', '.join(known)})")
    if opt.pairs < MIN_PAIRS:
        fail_usage(f"--pairs must be at least {MIN_PAIRS}")
    seconds = spec["run_seconds"]
    trees = {"base": base_tree(opt.base_rev), "change": ROOT}

    incorrect = 0
    stamp_problems = []

    def run(label: str, side: str, w: str, run_seconds: float) -> tuple[dict | None, str | None]:
        nonlocal incorrect
        result, stamp = run_perfbench(trees[side], w, opt.seed, run_seconds)
        shown = "no result"
        if result is not None:
            shown = ("correct" if result["correct"] else "INCORRECT") + "".join(
                f" {k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{w} {label} {side}: {shown}", flush=True)
        if result is None or not result["correct"]:
            incorrect += 1
        return result, stamp

    summaries: dict[str, list[MetricSummary]] = {}
    for w in workloads:
        stamps = {side: run("build and warm-up", side, w, 0)[1] for side in trees}
        for side, stamp in stamps.items():
            print(f"{w} {side} {stamp or 'env: (none)'}", flush=True)
        problem = stamp_problem(stamps["base"], stamps["change"])
        if problem:
            stamp_problems.append(f"{w}: {problem}")
        pairs = []
        for i in range(opt.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: run(f"pair {i + 1}/{opt.pairs}", side, w, seconds)[0] for side in order}
            if got["base"] is not None and got["change"] is not None:
                pairs.append((got["base"], got["change"]))
        summaries[w] = summarize(spec["end_to_end"], pairs)

    print(f"base {opt.base_rev} ({os.path.basename(trees['base'])}) against the "
          f"working tree; seed {opt.seed}, {seconds:g} s runs, {opt.pairs} pairs per workload")
    for w in workloads:
        for s in summaries[w]:
            print(s.line(w))
    if incorrect:
        print(f"ab_bench.py: {incorrect} run(s) not correct", file=sys.stderr)
    for problem in stamp_problems:
        print(f"ab_bench.py: {problem}; the numbers are not comparable", file=sys.stderr)
    return verdict([s for w in workloads for s in summaries[w]],
                   incorrect + len(stamp_problems))


if __name__ == "__main__":
    sys.exit(main())
