#!/usr/bin/env python3
"""Same-host A/B perf gate: the working tree against a base commit.

Checks the base commit out with `git worktree` and runs the benchmark that
BENCHMARK.json declares (perfbench/run.py) on both trees, one run at a
time: for each of --pairs pairs and each workload, one base run and one
run of the working tree, alternating which side goes first, all with
seed 1 and BENCHMARK.json's run_seconds. It then compares the medians
of every end-to-end metric and fails when the working tree's median is
worse than the base's by more than the metric's relative bound (the
`better` direction and `bound` come from BENCHMARK.json), or when any of
its runs is incorrect:

    python3 tools/perf_gate.py         # base: merge base with origin/main
    python3 tools/perf_gate.py --base HEAD~1 --pairs 1

It prints one base-vs-HEAD table per workload, also appended to
$GITHUB_STEP_SUMMARY when that is set. "spread" is (max - min) / median
of the base runs: a bound narrower than it cannot be resolved.

Seeded-slowdown hook: --scale 0.7 multiplies the working tree's sim_kips
median by 0.7 before the verdict, so the gate must fail.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_TREE = ROOT / ".bench_build" / "perf_gate_base"


def worse(metric, base, head):
    """True when @head is worse than @base by more than metric's bound."""
    if metric["better"] == "higher":
        return head < base * (1.0 - metric["bound"])
    return head > base * (1.0 + metric["bound"])


def verdict(metrics, base, head):
    """Names "workload/metric" of every end-to-end metric whose HEAD
    median is worse than its base median by more than its bound.
    @base and @head map workload -> metric name -> median."""
    return ["%s/%s" % (w, m["name"])
            for w in head for m in metrics
            if m["name"] in base[w]
            and worse(m, base[w][m["name"]], head[w][m["name"]])]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(tree, command, workload, seconds):
    """One benchmark run in @tree; returns its result JSON."""
    cmd = [*command, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        sys.exit("perf_gate: %s in %s exited %d"
                 % (" ".join(cmd), tree, done.returncode))
    return json.loads(lines[-1])


def table(workload, metrics, base_runs, base, head, failed):
    rows = ["## perf gate: %s" % workload, "",
            "| metric | base | HEAD | change | bound | spread | |",
            "|---|---|---|---|---|---|---|"]
    for m in metrics:
        n = m["name"]
        if n not in base:
            continue
        b, h = base[n], head[n]
        values = [r["metrics"][n]["value"] for r in base_runs]
        spread = "%.0f%%" % (100.0 * (max(values) - min(values)) / b) \
            if b and len(values) > 1 else "n/a"
        change = "%+.1f%%" % (100.0 * (h - b) / b) if b else "n/a"
        rows.append("| %s (%s) | %.4g | %.4g | %s | %.0f%% | %s | %s |"
                    % (n, m["unit"], b, h, change, 100.0 * m["bound"],
                       spread,
                       "FAIL" if "%s/%s" % (workload, n) in failed
                       else "ok"))
    return "\n".join(rows) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default=None,
                    help="base commit (default: git merge-base HEAD "
                         "origin/main)")
    ap.add_argument("--pairs", type=int, default=3,
                    help="base/HEAD run pairs per workload (default 3)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply HEAD's sim_kips median by this factor "
                         "(seeded-slowdown hook)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        base = args.base or git("merge-base", "HEAD", "origin/main")
        base_sha = git("rev-parse", "--verify", base + "^{commit}")
    except subprocess.CalledProcessError as e:
        sys.exit("perf_gate: cannot resolve the base commit (%s); pass "
                 "--base REF" % e.stderr.strip())

    subprocess.run(["git", "worktree", "remove", "--force", str(BASE_TREE)],
                   cwd=ROOT, capture_output=True)
    shutil.rmtree(BASE_TREE, ignore_errors=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", str(BASE_TREE), base_sha)
    runs = {side: {w: [] for w in workloads} for side in ("base", "HEAD")}
    try:
        for pair in range(args.pairs):
            for w in workloads:
                sides = ("base", "HEAD")
                for side in sides if pair % 2 == 0 else sides[::-1]:
                    tree = BASE_TREE if side == "base" else ROOT
                    r = run_bench(tree, spec["command"], w, spec["run_seconds"])
                    runs[side][w].append(r)
                    print("perf_gate: pair %d/%d %s %s: sim_kips %.1f%s"
                          % (pair + 1, args.pairs, w, side,
                             r["metrics"]["sim_kips"]["value"],
                             "" if r["correct"] else " INCORRECT"),
                          file=sys.stderr, flush=True)
    finally:
        git("worktree", "remove", "--force", str(BASE_TREE))

    medians = {side: {w: {n: statistics.median(r["metrics"][n]["value"]
                                               for r in rs)
                          for n in rs[0]["metrics"]}
                      for w, rs in by_w.items()}
               for side, by_w in runs.items()}
    for w in workloads:
        medians["HEAD"][w]["sim_kips"] *= args.scale
    failed = verdict(metrics, medians["base"], medians["HEAD"])
    incorrect = [w for w in workloads
                 if not all(r["correct"] for r in runs["HEAD"][w])]

    out = "".join(table(w, metrics, runs["base"][w], medians["base"][w],
                        medians["HEAD"][w], failed) + "\n"
                  for w in workloads)
    scaled = " (HEAD sim_kips scaled x%.2f)" % args.scale \
        if args.scale != 1.0 else ""
    out += ("base %s vs the working tree at HEAD %s, %d pair(s) per "
            "workload%s: **%s**\n"
            % (base_sha[:12], git("rev-parse", "--short=12", "HEAD"),
               args.pairs, scaled,
               "PASS" if not failed and not incorrect else
               "FAIL: " + ", ".join(failed + ["%s incorrect" % w
                                             for w in incorrect])))
    print(out, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(out)
    return 1 if failed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
