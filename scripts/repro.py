#!/usr/bin/env python3
"""Regenerate every figure and table of the reproduction and time it.

Usage (from anywhere in a checkout):

    scripts/repro.py [--build-dir build] [--label change] [--out bench/BENCH_e2e.json]
                     [--save-output DIR] [--no-build]

Builds the figure benches (bench_fig*, bench_table1_*, bench_sec54_*) in
--build-dir unless --no-build, runs each at its default flags, one after the
other, and fails (exit 1) on the first non-zero exit. Each bench sizes its
own worker pool from the host, so the wall times depend on the CPU count.

The record -- host stamp (nproc, CPU model, build type), wall seconds per
figure and in total -- replaces the record with the same --label in --out
and keeps the others, so a file can hold a base and a change record taken
back to back on one host. --save-output stores each bench's stdout as
DIR/<bench>.txt for byte-for-byte comparison between two builds.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIGURES = [
    "bench_fig01_footprint_vs_missrate",
    "bench_fig02_05_counters_vs_occupancy",
    "bench_fig03a_private_l2_pairs",
    "bench_fig03b_shared_l2_pairs",
    "bench_table1_mapping_runtimes",
    "bench_fig10_native_improvement",
    "bench_fig11_vm_improvement",
    "bench_fig12_parsec_improvement",
    "bench_fig13_algorithm_comparison",
    "bench_fig14_hash_functions",
    "bench_sec54_overheads",
]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type(build_dir):
    """CMAKE_BUILD_TYPE from the cache; empty means the project default."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "RelWithDebInfo"
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.check_call(["cmake", "-S", ROOT, "-B", build_dir,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=subprocess.DEVNULL)
    jobs = str(min(2, os.cpu_count() or 1))  # the machine's memory may be shared
    subprocess.check_call(["cmake", "--build", build_dir, "-j", jobs, "--target"] + FIGURES,
                          stdout=subprocess.DEVNULL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    parser.add_argument("--label", default="change", help="record name within --out")
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "BENCH_e2e.json"))
    parser.add_argument("--save-output", default="", help="directory for each bench's stdout")
    parser.add_argument("--no-build", action="store_true", help="run the binaries as they are")
    args = parser.parse_args()

    build_dir = os.path.abspath(args.build_dir)
    if not args.no_build:
        build(build_dir)
    if args.save_output:
        os.makedirs(args.save_output, exist_ok=True)

    figures = {}
    total = 0.0
    for name in FIGURES:
        binary = os.path.join(build_dir, "bench", name)
        if not os.access(binary, os.X_OK):
            print("repro: missing %s (build it or drop --no-build)" % binary, file=sys.stderr)
            return 1
        t0 = time.monotonic()
        proc = subprocess.run([binary], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
            print("repro: %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        if args.save_output:
            with open(os.path.join(args.save_output, name + ".txt"), "wb") as f:
                f.write(proc.stdout)
        figures[name] = round(wall, 2)
        total += wall
        print("%-40s %7.2f s" % (name, wall), flush=True)
    print("%-40s %7.2f s" % ("total", total))

    record = {
        "label": args.label,
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "build_type": build_type(build_dir)},
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "figures_s": figures,
        "total_s": round(total, 2),
    }
    records = []
    if os.path.isfile(args.out):
        with open(args.out) as f:
            records = json.load(f).get("records", [])
    records = [r for r in records if r.get("label") != args.label] + [record]
    with open(args.out, "w") as f:
        json.dump({"_comment": "scripts/repro.py wall times; compare records of one host only",
                   "records": records}, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
