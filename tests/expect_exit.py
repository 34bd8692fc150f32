#!/usr/bin/env python3
"""Run a command and check how it fails.

    expect_exit.py [--empty-stdout] CODE TEXT CMD [ARG ...]

Passes when CMD exits with status CODE (a signal, such as the SIGABRT of
an uncaught exception, never matches) and its stderr contains TEXT. With
--empty-stdout, CMD must also print nothing to stdout, so a script
reading it never sees a partial table. The environment is passed
through, so ctest's ENVIRONMENT property sets the bad input.
"""

import subprocess
import sys


def main():
    args = sys.argv[1:]
    empty_stdout = args[:1] == ["--empty-stdout"]
    if empty_stdout:
        args = args[1:]
    if len(args) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    want_code, want_text, cmd = int(args[0]), args[1], args[2:]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, check=False)
    how = ("killed by signal %d" % -p.returncode if p.returncode < 0
           else "exit %d" % p.returncode)
    print("%s: %s\nstderr: %s" % (" ".join(cmd), how, p.stderr.strip()))
    if p.returncode != want_code:
        print("FAIL: want exit %d" % want_code)
        return 1
    if want_text not in p.stderr:
        print("FAIL: stderr does not contain %r" % want_text)
        return 1
    if empty_stdout and p.stdout:
        print("FAIL: stdout is not empty:\n%s" % p.stdout)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
