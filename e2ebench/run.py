#!/usr/bin/env python3
"""Builds and runs the xvu end-to-end benchmark; see e2ebench/README.md.

    python3 e2ebench/run.py --workload perop_20k --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The package under e2ebench/ is configured and built on first use into
$CARGO_TARGET_DIR (default .bench_build) at the repository root, compiling
the library from src/. The last stdout line is the result object; with
--trace 1 the batch phase and pool metrics are read from the Chrome trace
the run writes to <build dir>/out/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170
PHASES = ("validate", "eval", "conflicts", "translate", "apply", "maintain")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        sys.exit("error: the xvu sources (src/) are not next to e2ebench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", target],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, target)


def span_metrics(trace_path):
    """Per-batch phase medians and pool busy time from a Chrome trace."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    durations = {}
    for e in events:
        if e.get("ph") == "X":
            durations.setdefault(e["name"], []).append(e["dur"] / 1000.0)
    batches = len(durations.get("op.batch", []))
    out = {}
    for phase in PHASES:
        spans = durations.get("batch.phase." + phase, [])
        out["batch.%s_ms" % phase] = statistics.median(spans) if spans else 0.0
    busy = sum(durations.get("pool.drain", []))
    out["pool.busy_ms"] = busy / batches if batches else 0.0
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker lanes in place of the workload's own "
                        "(not tracked)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    bdir = build_dir()

    if args.selftest:
        binary = build(bdir, "xvu_e2e_selftest")
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build(bdir, "xvu_e2e")
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir, "--workers", str(args.workers)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("error: xvu_e2e exited with %d and no result" % proc.returncode)
    result = json.loads(lines[-1])
    if args.trace:
        trace = os.path.join(out_dir, "trace_%s_%d.json" % (args.workload,
                                                            args.seed))
        for name, value in span_metrics(trace).items():
            result["metrics"][name] = {"value": value, "unit": "ms"}
    with open(os.path.join(out_dir, "result_%s_%d_trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
