#!/usr/bin/env python3
"""Self-test of the tlpsim benchmark, at minimal scale.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  - tlpsim_bench's workloads match BENCHMARK.json;
  - every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) by name with its unit, all points correct;
  - a point with one deliberately corrupted stat counts as failed and
    lowers correct_point_ratio;
  - the benchmark exits non-zero without a result in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT, expect_failure=False):
    """Run run.py; return (exit code, last-line JSON or None, stdout)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 and not expect_failure:
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, result, done.stdout


def metrics_match(result, spec):
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    return got == want


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    code, _, _ = bench("--workload", "sc_compute", "--seed", "1",
                       "--seconds", "1", "--quick")
    check(code == 0, "the benchmark builds and runs")
    listed = subprocess.run([str(run.BINARY), "list"], capture_output=True,
                            text=True).stdout.split()
    check(listed == [w["name"] for w in spec["workloads"]],
          "tlpsim_bench's workloads match BENCHMARK.json")

    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{w['name']} --trace {trace}"
            code, result, _ = bench("--workload", w["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--quick")
            if code != 0 or result is None:
                check(False, f"{what} prints a result")
                continue
            check(set(result) == RESULT_KEYS, f"{what} result keys")
            check(metrics_match(result, table),
                  f"{what} prints every metric with its unit")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what} all points correct")

    code, result, stdout = bench("--workload", "sc_compute", "--seed", "1",
                                 "--seconds", "1", "--quick",
                                 "--corrupt-point", "1")
    if code != 0 or result is None:
        check(False, "corrupted run prints a result")
    else:
        reps = json.loads(stdout.strip().splitlines()[-2][len("host "):])[
            "repetitions"]
        ratio = result["metrics"]["correct_point_ratio"]["value"]
        check(result["failed"] == reps and not result["correct"],
              "a corrupted stat fails its point in every repetition")
        check(ratio == (result["attempted"] - reps) / result["attempted"],
              "correct_point_ratio counts the corrupted point")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", "sc_compute", "--seed", "1",
                                "--seconds", "1", cwd=bare,
                                expect_failure=True)
        check(code != 0 and result is None,
              "without the simulator sources it fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
