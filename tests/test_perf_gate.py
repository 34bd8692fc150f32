#!/usr/bin/env python3
"""Tests of the perf gate's verdict (ctest: test_perf_gate).

Feeds tools/perf_gate.py's verdict function synthetic medians for every
BENCHMARK.json workload, with the real end-to-end metrics, directions and
bounds, and checks which comparisons pass and which fail. No benchmark
runs.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.dont_write_bytecode = True
import perf_gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]
BASE = {w["name"]: {"sim_kips": 5000.0, "setup_s": 0.5,
                    "peak_rss_mib": 100.0, "correct_point_ratio": 1.0,
                    "tlp_ipc_pct_of_base": 105.0,
                    "tlp_dram_tx_pct_of_base": 98.0}
        for w in SPEC["workloads"]}


def head_with(workload, metric, factor):
    """BASE with one workload's metric multiplied by @factor."""
    head = {w: dict(m) for w, m in BASE.items()}
    head[workload][metric] *= factor
    return head


def main():
    wl = SPEC["workloads"][0]["name"]
    cases = [
        ("equal medians pass", BASE, []),
        ("sim_kips x0.7 fails", head_with(wl, "sim_kips", 0.7),
         [wl + "/sim_kips"]),
        ("a correct_point_ratio drop fails",
         head_with(wl, "correct_point_ratio", 0.9),
         [wl + "/correct_point_ratio"]),
        ("a peak_rss_mib rise inside its 5% bound passes",
         head_with(wl, "peak_rss_mib", 1.04), []),
    ]
    assert {m["name"] for m in METRICS} == set(BASE[wl]), \
        "BENCHMARK.json's end-to-end metrics changed; update BASE"
    failures = 0
    for what, head, want in cases:
        got = perf_gate.verdict(METRICS, BASE, head)
        ok = got == want
        failures += not ok
        print(("ok   " if ok else "FAIL ") + what
              + ("" if ok else ": got %r, want %r" % (got, want)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
