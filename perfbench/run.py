#!/usr/bin/env python3
"""The tlpsim benchmark.

Runs one named workload as a sweep of design points (baseline plus the
paper's schemes) through the simulator's public Runner/Simulator API and
prints its end-to-end metrics, or with --trace 1 the per-layer metrics of
a traced run. Run it from the root of a checkout:

    python3 perfbench/run.py --workload sc_compute --seed 1 --seconds 40 --trace 0

The first run builds this directory's CMake package (the simulator
library from src/ plus the benchmark binary) into .bench_build/perfbench.
Every repetition is a process of its own, so each pays its own set-up
and reports its own peak RSS. The run repeats for about --seconds and
reports medians; the repetitions cycle through the seed's sub-seeds
(see SUB_SEEDS). A line of host facts (compiler, build type,
nproc, worker count) precedes the result; the last line of standard
output is one JSON object:

    {"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}

BENCHMARK.json at the root of the checkout lists the workloads and
metrics and says why each exists; this script reports the metrics it
names, with its units.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
BINARY = BUILD_DIR / "tlpsim_bench"

BUILD_JOBS = min(4, os.cpu_count() or 1)
# A run of seed N measures the inputs of SUB_SEEDS sub-seeds,
# SUB_SEEDS*N .. SUB_SEEDS*N + SUB_SEEDS-1, one per repetition in turn.
# Its simulated figures average those input sets, so they vary less from
# seed to seed. A traced run measures the first sub-seed only.
SUB_SEEDS = 3
# Repetitions a run makes at least, however long they take.
MIN_REPS = {0: SUB_SEEDS, 1: 1}
# No repetition starts once one more would end past this, so a run ends
# well within 180 s.
HARD_LIMIT_S = 150.0


class BenchError(Exception):
    """A failure that leaves no result to print."""


def build():
    """Configure (once) and build the benchmark package; quiet on success."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                # A failed configure must not leave a cache that skips
                # the configure step next time.
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")


def load_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def sub_seed(args, rep):
    """The seed repetition @rep of this run records its traces with."""
    return SUB_SEEDS * args.seed + (0 if args.trace else rep % SUB_SEEDS)


def run_child(mode, args, rep, deadline_s, extra=()):
    """Run one benchmark process; return its JSON line as a dict."""
    seed = sub_seed(args, rep)
    run_dir = RUNS_DIR / f"{args.workload}-s{seed}-p{os.getpid()}-r{rep}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(BINARY), mode, "--workload", args.workload,
           "--seed", str(seed), "--dir", str(run_dir), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline_s))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {args.workload} timed out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def repeat(mode, args, extra=()):
    """Repetitions of one mode for about args.seconds: after the minimum,
    another starts only if a repetition of average length would end in
    time."""
    start = time.monotonic()
    reps = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS[args.trace]:
            average = elapsed / len(reps)
            if (elapsed + average > args.seconds
                    or elapsed + longest > HARD_LIMIT_S):
                break
        t = time.monotonic()
        reps.append(run_child(mode, args, len(reps),
                              HARD_LIMIT_S + 25.0 - elapsed, extra))
        longest = max(longest, time.monotonic() - t)
    return reps


def end_to_end(reps):
    """Medians of the timed figures; the simulated ones over the first
    repetition of each sub-seed."""
    first = reps[:SUB_SEEDS]
    return {
        "sim_kips": statistics.median(r["sim_kips"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "correct_point_ratio": 1.0 - failed_points(reps) / points(reps),
        "tlp_ipc_pct_of_base": 100.0 * statistics.geometric_mean(
            r["tlp_ipc_ratio"] for r in first),
        "tlp_dram_tx_pct_of_base": 100.0
        * sum(r["tlp_dram_tx"] for r in first)
        / sum(r["base_dram_tx"] for r in first),
    }


def per_layer(reps):
    """Per-metric medians over the traced repetitions."""
    return {n: statistics.median(r["metrics"][n] for r in reps)
            for n in reps[0]["metrics"]}


def points(reps):
    return sum(r["points"] for r in reps)


def failed_points(reps):
    return sum(r["failed"] for r in reps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale: tiny instruction counts")
    parser.add_argument("--corrupt-point", type=int, default=None,
                        help="self-test: corrupt one point's stats")
    args = parser.parse_args(argv)

    try:
        build()
        extra = []
        if args.quick:
            extra.append("--quick")
        if args.corrupt_point is not None:
            extra += ["--corrupt-point", str(args.corrupt_point)]
        units = load_metrics(args.trace)
        if args.trace:
            reps = repeat("layers", args, extra)
            values = per_layer(reps)
        else:
            reps = repeat("sweep", args, extra)
            values = end_to_end(reps)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: tlpsim_bench reported no {sorted(missing)}",
              file=sys.stderr)
        return 1
    for r in reps:
        for err in r["errors"]:
            print(f"perfbench: failed point: {err}", file=sys.stderr)
    # Repetitions of one sub-seed simulate the same points from the same
    # traces, so any difference in their stats is a determinism failure.
    digests = {}
    for r in reps:
        digests.setdefault(r["seed"], set()).add(r["digest"])
    deterministic = all(len(d) == 1 for d in digests.values())
    if not deterministic:
        print("perfbench: repetitions disagree on the simulated stats",
              file=sys.stderr)
    host = dict(reps[0]["host"], workload=args.workload, seed=args.seed,
                sub_seeds=sorted(digests), repetitions=len(reps))
    if not args.trace:
        host["sim_kips_samples"] = [round(r["sim_kips"], 1) for r in reps]
    print("host " + json.dumps(host))
    failed = failed_points(reps)
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": points(reps),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
