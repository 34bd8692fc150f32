#!/usr/bin/env python3
"""Peak RSS of a built-in workload must not grow with its length
(ctest: test_rss_guard).

    test_rss_guard.py PATH/TO/tlpsim

Runs `tlpsim --workload pr.kron` at TLPSIM_SET=tiny TLPSIM_WARMUP=20000
with TLPSIM_INSTRS 200000 and then 2000000, and reads each child's peak
RSS (ru_maxrss) with os.wait4. Built-in traces stream from a spill file,
so ten times the instructions may cost less than LIMIT_MIB more. Holding
the trace in memory (32 B per record) made the 2M run 29 MiB larger.
"""

import os
import subprocess
import sys

LIMIT_MIB = 4.0


def peak_rss_mib(tlpsim, instrs):
    env = dict(os.environ, TLPSIM_SET="tiny", TLPSIM_WARMUP="20000",
               TLPSIM_INSTRS=str(instrs))
    p = subprocess.Popen([tlpsim, "--workload", "pr.kron"], env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        sys.exit("FAIL: tlpsim at %d instructions: exit %d\n%s"
                 % (instrs, p.returncode, err.decode(errors="replace")))
    return usage.ru_maxrss / 1024.0   # KiB on Linux


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    short = peak_rss_mib(sys.argv[1], 200_000)
    long = peak_rss_mib(sys.argv[1], 2_000_000)
    grew = long - short
    print("peak RSS: %.1f MiB at 200k instructions, %.1f MiB at 2M "
          "(+%.1f MiB, limit %.1f)" % (short, long, grew, LIMIT_MIB))
    if grew >= LIMIT_MIB:
        print("FAIL: peak RSS grows with the instruction count")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
