#!/usr/bin/env python3
"""Reproduction benchmark of the symbiosis simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload native-grid --seed 1 --seconds 40 --trace 0

Builds the simulator and the measuring program (perfbench/perfbench.cpp)
from the checkout's sources into .bench_build/perfbench (a no-op when the
build is fresh), runs one workload, checks its outputs and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus layer shares, tracing overhead and the span file on the
lines before). Every result is preceded by an environment stamp; results
from different hosts, build types or SIMD backends are not comparable.

Output check: the program digests its simulated outputs; the digest must
equal the one recorded in perfbench/digests.json for that workload and seed
(when one is recorded), every round of a run must reproduce it, and cell
invariants (every mapping completed, chosen mapping in range, replayed refs
equal the trace's memory records) must hold on any seed.

--record stores the run's digest for its seed in digests.json; --small runs
reduced sizes (for perfbench/selftest.py), whose digests are never recorded.
"""
import argparse
import fcntl
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BASE = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_BASE, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("native-grid", "trace-replay")
BUILD_TYPE = "RelWithDebInfo"
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def die(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    sources = os.path.join(ROOT, "src")
    if not os.path.isdir(sources):
        die("no simulator sources at %s; run from a full checkout" % sources, 2)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("no BENCHMARK.json at the checkout root", 2)
    if shutil.which("cmake") is None:
        die("cmake not found", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_BASE, "perfbench-build.log")
    jobs = str(min(2, multiprocessing.cpu_count()))  # the machine's memory may be shared
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (full log: %s)" % log_path, 3)


def run_program(args, out_path):
    """Run the measuring program; return (exit status, peak RSS in MB).

    The child's own peak RSS comes from wait4, measured from outside and
    excluding the build's compiler processes.
    """
    with open(out_path, "w") as out:
        proc = subprocess.Popen([BINARY] + args, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    deadline = time.monotonic() + RUN_LIMIT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            die("run exceeded %d s and was stopped" % RUN_LIMIT_S, 4)
        time.sleep(0.02)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    ap.add_argument("--expect-digest", help="compare against this digest instead")
    ap.add_argument("--record", action="store_true", help="store this seed's digest")
    opt = ap.parse_args()
    if opt.seed < 0:
        die("--seed must be non-negative", 2)

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    tag = "%s-seed%d-trace%d%s" % (opt.workload, opt.seed, opt.trace, "-small" if opt.small else "")
    out_path = os.path.join(BUILD_BASE, "perfbench-%s.out" % tag)
    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", repr(opt.seconds), "--trace", str(opt.trace)]
    if opt.small:
        args.append("--small")
    spans_path = None
    if opt.trace:
        os.makedirs(os.path.join(BUILD_BASE, "spans"), exist_ok=True)
        spans_path = os.path.join(BUILD_BASE, "spans", tag + ".jsonl")
        args += ["--spans", spans_path]
    status, peak_rss_mb = run_program(args, out_path)
    with open(out_path) as f:
        lines = f.read().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        die("measuring program exited %d without a result" % status, 5)

    errors = list(raw["errors"])
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    if status != 0:
        errors.append("measuring program exited %d" % status)
        failed = attempted

    key = str(opt.seed)
    recorded = opt.expect_digest
    if recorded is None and not opt.small:
        recorded = load_digests().get(opt.workload, {}).get(key)
    if not raw["digest"]:
        digest_note = "none produced"
        failed = attempted
    elif recorded is None:
        digest_note = "%s (no recorded digest for this seed: invariants and round-to-round " \
                      "agreement checked only)" % raw["digest"]
    elif recorded == raw["digest"]:
        digest_note = "%s matches the recorded digest" % raw["digest"]
    else:
        digest_note = "%s MISMATCH, recorded %s" % (raw["digest"], recorded)
        errors.append("digest mismatch")
        failed = attempted
    failed = min(failed, attempted)

    if opt.record and not opt.small and raw["digest"] and failed == 0:
        with open(os.path.join(BUILD_BASE, "digests.lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # recordings of several workloads may run at once
            table = load_digests()
            table.setdefault(opt.workload, {})[key] = raw["digest"]
            with open(DIGESTS, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")

    optimised = raw["optimized"]
    print("env: nproc=%d cpu=%r build_type=%s%s simd=%s workers=%d seed=%d workload=%s trace=%d%s"
          % (multiprocessing.cpu_count(), cpu_model(), raw["build_type"],
             "" if optimised else " (NOT OPTIMISED: numbers are not comparable)",
             raw["simd"], raw["workers"], opt.seed, opt.workload, opt.trace,
             " small" if opt.small else ""))
    print("setup: %d samples, median %.6g s; %d rounds of %s s"
          % (len(raw["setup_samples"]), raw["setup_s"], raw["rounds"],
             ", ".join("%.3f" % w for w in raw["round_wall_s"])))
    print("output check: digest %s; fail_ratio %d/%d" % (digest_note, failed, attempted))
    for e in errors:
        print("  failure: " + e)
    if opt.workload != "trace-replay":
        print("oracle_capture_pct: %.4f %% (simulated; repeats exactly for a seed)"
              % raw["oracle_capture_pct"])

    values = {"setup_s": raw["setup_s"], "cells_per_s": raw["cells_per_s"],
              "replay_mrefs_per_s": raw["replay_mrefs_per_s"], "peak_rss_mb": peak_rss_mb}
    values.update(raw["layers"])
    wanted = spec["per_layer"] if opt.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            errors.append("metric %s not produced" % m["name"])
            failed = attempted
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("metric %-34s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    if opt.trace:
        shares = raw["shares"]
        if shares:
            print("layer shares of machine.ns_per_step: " + ", ".join(
                "%s %.3f" % (k, v) for k, v in shares.items() if k != "sum")
                + "; sum %.3f" % shares["sum"])
        print("tracing overhead: traced wall - untraced wall = %.4f s"
              % raw["layers"].get("trace.overhead_s", float("nan")))
        print("spans: %d recorded (%d dropped) in %s"
              % (raw["spans"], raw["spans_dropped"], os.path.relpath(spans_path, ROOT)))

    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
