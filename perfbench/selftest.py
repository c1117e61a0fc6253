#!/usr/bin/env python3
"""Self-test of the reproduction benchmark, at reduced scale.

Run from the root of a checkout (about a minute on 4 CPUs):

    python3 perfbench/selftest.py

Checks, for every workload:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and its outputs check clean;
  * re-running against the digest it produced passes, and against a
    tampered digest is reported as a failure (correct false, every attempt
    failed) while still printing a result;
  * a traced run prints every per-layer metric with its unit, the tracing
    overhead, and writes its spans;
  * a held-out seed, never used while the benchmark was tuned, runs clean.
Finally, the benchmark run in a directory that holds only BENCHMARK.json
and perfbench/ must fail without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 987654321
failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def digest_of(lines):
    for line in lines:
        if line.startswith("output check: digest "):
            return line.split()[3]
    return None


def metrics_complete(result, wanted):
    got = result["metrics"]
    return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"] for m in wanted)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seconds", "1", "--small"]

        code, lines, res = run(base + ["--seed", "7", "--trace", "0"])
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
              "%s: reduced-scale run is correct" % name)
        check(res is not None and metrics_complete(res, spec["end_to_end"]),
              "%s: every end-to-end metric printed with its unit" % name)
        digest = digest_of(lines)
        check(digest is not None, "%s: run prints its output digest" % name)
        if digest:
            _, _, res = run(base + ["--seed", "7", "--expect-digest", digest])
            check(res is not None and res["correct"], "%s: matching digest passes" % name)
            tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            code, _, res = run(base + ["--seed", "7", "--expect-digest", tampered])
            check(code == 0 and res is not None and not res["correct"]
                  and res["failed"] == res["attempted"],
                  "%s: tampered digest is reported as a failure" % name)

        code, lines, res = run(base + ["--seed", "7", "--trace", "1"])
        check(code == 0 and res is not None and res["correct"], "%s: traced run is correct" % name)
        check(res is not None and metrics_complete(res, spec["per_layer"]),
              "%s: every per-layer metric printed with its unit" % name)
        check(any(l.startswith("tracing overhead:") for l in lines),
              "%s: tracing overhead printed" % name)
        spans = [l.split(" in ", 1)[1] for l in lines if l.startswith("spans:")]
        ok = False
        if spans and os.path.isfile(os.path.join(ROOT, spans[0])):
            with open(os.path.join(ROOT, spans[0])) as f:
                records = [json.loads(l) for l in f if l.strip()]
            ok = bool(records) and all(
                {"id", "parent", "cell", "name", "start_s", "end_s"} <= set(r) for r in records)
        check(ok, "%s: spans written as (id, parent, cell, name, start, end)" % name)

        _, _, res = run(base + ["--seed", str(HELD_OUT_SEED)])
        check(res is not None and res["correct"], "%s: held-out seed runs clean" % name)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, res = run(["--workload", "native-grid", "--seed", "1", "--seconds", "1"], cwd=bare)
    check(code != 0 and res is None, "without the simulator's sources the run fails, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
