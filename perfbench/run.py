#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built with
dune inside the checkout (the shared dune cache is disabled, so nothing
is written outside it), then run with the same arguments and without
address-space randomisation. The last line
of standard output is the result object; build output goes to standard
error. Exits non-zero, printing no result, when the build fails.
"""

import ctypes
import os
import subprocess
import sys

TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run the benchmark without address-space randomisation, so that one
    seed lays its heap and code out the same way in every process."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            stdout=sys.stderr,
            env=env,
        )
    except FileNotFoundError:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env,
                          preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
