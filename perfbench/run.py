#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N]

The first form builds perfbench/bench.exe with dune into .bench_build/ and
runs one workload; the last line of its output is the JSON result.  The
second runs every workload timed (--trace 0) and traced (--trace 1) for
BENCHMARK.json's run_seconds, prints every metric with its unit, workload,
sample count and, for per-layer metrics, the end-to-end metric it should
move; it exits non-zero if any correctness check failed.

BENCHMARK.json is the only list of metric names and units.  bench.exe
prints "metric NAME VALUE SAMPLES" lines and "result ATTEMPTED FAILED";
a name it prints that BENCHMARK.json does not declare for the run's mode,
or a missing end-to-end metric, fails the run.  A per-layer metric the
workload never reaches reads 0 with 0 samples.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# A run must end within 180 s; a hung server or sweep is killed before that.
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)


def run_bench(spec, workload, seed, seconds, trace):
    """Run one workload; return (result, rows) or (None, error).  rows are
    (name, value, unit, samples) in BENCHMARK.json's order."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    if r.returncode != 0:
        return None, "bench.exe exited %d" % r.returncode
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured, outcome = {}, None
    for line in r.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            if parts[1] not in units or parts[1] in measured:
                return None, "metric %s is not declared once in BENCHMARK.json" % parts[1]
            measured[parts[1]] = (float(parts[2]), int(parts[3]))
        elif len(parts) == 3 and parts[0] == "result":
            outcome = (int(parts[1]), int(parts[2]))
    if outcome is None:
        return None, "no result line"
    missing = [n for n in units if n not in measured]
    if trace == "0" and missing:
        return None, "end-to-end metrics not measured: " + ", ".join(missing)
    rows = []
    for name, unit in units.items():
        value, samples = measured.get(name, (0.0, 0))
        rows.append((name, value, unit, samples))
    attempted, failed = outcome
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows},
    }
    return result, rows


def report(spec, notes, seed):
    moves = {n: m["moves"] for n, m in notes["per_layer"].items()}
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(moves) != sorted(layer_names):
        print("perfbench: metrics.json's per-layer names differ from BENCHMARK.json's")
        return 1
    ok = True
    print("%-14s %-34s %18s %-6s %8s  %s" % ("workload", "metric", "value", "unit", "samples", "moves"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            result, rows = run_bench(spec, workload, seed, spec["run_seconds"], trace)
            if result is None:
                ok = False
                print("%-14s trace=%s FAILED: %s" % (workload, trace, rows))
                continue
            if not result["correct"]:
                ok = False
                print("%-14s trace=%s FAILED: %d of %d checks failed" % (
                    workload, trace, result["failed"], result["attempted"]))
            for name, value, unit, samples in rows:
                print("%-14s %-34s %18.6g %-6s %8d  %s" % (
                    workload, name, value, unit, samples, moves.get(name, "")))
    return 0 if ok else 1


def main(argv):
    spec = load_json("BENCHMARK.json")
    if "--report" in argv:
        notes = load_json(os.path.join(HERE, "metrics.json"))
        seed = notes["default_seed"]
        rest = [a for a in argv if a != "--report"]
        if rest[:1] == ["--seed"] and len(rest) == 2:
            seed = int(rest[1])
        elif rest:
            sys.stderr.write("usage: run.py --report [--seed N]\n")
            return 2
        build()
        return report(spec, notes, seed)
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) != 8 or sorted(opts) != ["--seconds", "--seed", "--trace", "--workload"]:
        sys.stderr.write("usage: run.py --workload NAME --seed N --seconds S --trace 0|1\n")
        return 2
    build()
    result, rows = run_bench(
        spec, opts["--workload"], opts["--seed"], opts["--seconds"], opts["--trace"])
    if result is None:
        sys.stderr.write("perfbench: %s\n" % rows)
        return 1
    for name, value, unit, samples in rows:
        print("metric %s %r %s workload=%s samples=%d" % (
            name, value, unit, opts["--workload"], samples))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
