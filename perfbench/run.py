#!/usr/bin/env python3
"""Builds and runs the paper-density benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The first form builds the benchmark binary from the source tree around
this directory (Release, into $CARGO_TARGET_DIR or .bench_build at the
tree's root), runs one workload, and leaves the binary's JSON result
line as the last line of standard output. Build output goes to standard
error. The second form runs every workload untraced and traced and prints
every metric by name with its unit.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_seq", "burst_window4", "big_city_seq")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds (both no-ops when up to date); returns the
    binary path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs]]
    # Compiler temporaries stay inside the build tree.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def run_one(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, last stdout line)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def run_all(binary, seed, seconds):
    rows = []
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, last = run_one(binary, workload, seed, seconds, trace)
            if code != 0:
                return code
            result = json.loads(last)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:36s} {value:>18.6g} {unit}")
    print("all gates passed" if ok else "SOME GATES FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 0 and 1")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, last = run_one(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if code != 0:
        return code
    try:
        json.loads(last)
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
